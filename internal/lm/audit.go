package lm

import (
	"fmt"
	"sort"
)

// Audit verifies the table's internal shape invariants — the facts
// every accessor assumes: one row per owner, a bijective owner->row
// index, sorted owner IDs, and servers/chains rows of equal depth. It
// returns the first violation found, or nil. This is the structural
// half of the invariant checker's table-owners check; the semantic
// half (rows match the hierarchy) lives in internal/invariant.
func (t *Table) Audit() error {
	indexed := 0
	for _, r := range t.index {
		if r >= 0 {
			indexed++
		}
	}
	if indexed != len(t.owners) {
		return fmt.Errorf("lm: index has %d entries for %d owners", indexed, len(t.owners))
	}
	if len(t.servers) != len(t.owners) || len(t.chains) != len(t.owners) {
		return fmt.Errorf("lm: %d owners but %d server rows / %d chain rows",
			len(t.owners), len(t.servers), len(t.chains))
	}
	prev := -1
	for row, v := range t.owners {
		if v <= prev {
			return fmt.Errorf("lm: owners unsorted or duplicated at %d (row %d)", v, row)
		}
		prev = v
		if got := t.row(v); got != row {
			return fmt.Errorf("lm: owner %d indexed to row %d, stored at row %d", v, got, row)
		}
		if len(t.servers[row]) != len(t.chains[row]) {
			return fmt.Errorf("lm: owner %d has %d server levels but %d chain levels",
				v, len(t.servers[row]), len(t.chains[row]))
		}
	}
	return nil
}

// CorruptServer deliberately misroutes one live server entry to a
// different live owner, simulating a handoff that failed to rehome the
// entry. It exists for the invariant checker's fault-injection tests:
// the corrupted entry is still a live node, so only the rebuild
// differential (table-rebuild-equal) can detect it. salt picks the
// victim row deterministically. Returns false when the table has no
// entry that can be misrouted to a distinct owner.
func (t *Table) CorruptServer(salt uint64) bool {
	if len(t.owners) < 2 {
		return false
	}
	for off := 0; off < len(t.owners); off++ {
		row := int((salt + uint64(off)) % uint64(len(t.owners)))
		for k, srv := range t.servers[row] {
			if srv < 0 {
				continue
			}
			wrong := t.nextOwner(int(srv))
			if wrong < 0 || wrong == int(srv) {
				continue
			}
			t.servers[row][k] = int32(wrong)
			return true
		}
	}
	return false
}

// nextOwner returns a live owner different from v, or -1.
func (t *Table) nextOwner(v int) int {
	i := sort.SearchInts(t.owners, v)
	if i < len(t.owners) && t.owners[i] == v {
		i++
	}
	if i >= len(t.owners) {
		i = 0
	}
	if t.owners[i] == v {
		return -1
	}
	return t.owners[i]
}
