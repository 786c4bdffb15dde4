package stats

import "sort"

// Sum adds the values of m in sorted-key order.
func Sum(m map[string]int) int {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	total := 0
	for _, k := range keys {
		total += m[k]
	}
	return total
}
