// Command experiments regenerates the paper's figures and validates
// its numbered claims. Each experiment ID maps to a table or figure
// per DESIGN.md §4; EXPERIMENTS.md records paper-vs-measured outcomes.
//
// Usage:
//
//	experiments -list
//	experiments -run E15
//	experiments -run all -quick
//	experiments -run E15 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	manet "repro"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		run        = flag.String("run", "", "experiment ID ("+idRanges(manet.Experiments())+") or 'all'")
		list       = flag.Bool("list", false, "list experiments")
		quick      = flag.Bool("quick", false, "smoke-test scale instead of full scale")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (post-run, after GC) to this file")
		manifest   = flag.String("manifest", "", "write a run manifest (scale, per-phase timings, cell stats) to this JSON file")
		progress   = flag.Bool("progress", false, "report per-cell sweep progress on stderr")
		mob        = flag.String("mobility", "", "mobility model for every run (default waypoint; see lmsim -mobility)")
		link       = flag.String("link", "", "link model for every run: unitdisk (default) | logshadow")
	)
	flag.Parse()

	if *list || *run == "" {
		fmt.Println("available experiments:")
		for _, e := range manet.Experiments() {
			fmt.Printf("  %-4s %-36s %s\n", e.ID, e.Title, e.Paper)
		}
		if *run == "" && !*list {
			fmt.Println("\nrun one with: experiments -run <ID> (or -run all)")
		}
		return
	}

	// Profile teardown must run before exit, so the experiment body
	// lives in its own function and errors exit from main.
	if err := runExperiments(*run, *quick, *cpuprofile, *memprofile, *manifest, *progress, *mob, *link); err != nil {
		log.Fatal(err)
	}
}

// idRanges renders the registry's IDs as runs of one letter prefix in
// registry order, e.g. "E1..E19, A1..A6, Z1".
func idRanges(exps []manet.Experiment) string {
	var parts []string
	for i := 0; i < len(exps); {
		j := i
		for j+1 < len(exps) && exps[j+1].ID[:1] == exps[i].ID[:1] {
			j++
		}
		part := exps[i].ID
		if j > i {
			part += ".." + exps[j].ID
		}
		parts = append(parts, part)
		i = j + 1
	}
	return strings.Join(parts, ", ")
}

func runExperiments(run string, quick bool, cpuprofile, memprofile, manifest string, progress bool, mobility, link string) error {
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if memprofile != "" {
		defer func() {
			f, err := os.Create(memprofile)
			if err != nil {
				log.Printf("memprofile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so live objects dominate
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
			}
		}()
	}

	sc := manet.FullScale()
	if quick {
		sc = manet.QuickScale()
	}
	sc.Mobility = mobility
	sc.Link = link
	if manifest != "" {
		man := obs.NewManifest("experiments")
		man.Config = map[string]any{
			"run": run, "quick": quick,
			"scale": sc, // Scale is plain data (sink fields are json:"-")
		}
		sc.Metrics = obs.NewRegistry()
		// The manifest is written in a defer so a failed experiment still
		// leaves its partial metrics (cells ok/failed, phase timings)
		// behind for diagnosis.
		defer func() {
			man.Finish(sc.Metrics)
			if werr := man.WriteFile(manifest); werr != nil {
				log.Printf("%v", werr)
				return
			}
			fmt.Fprintf(os.Stderr, "manifest -> %s\n", manifest)
		}()
	}
	if progress {
		sc.Progress = os.Stderr
	}

	clock := startWallClock()
	var err error
	if strings.EqualFold(run, "all") {
		err = manet.RunAllExperiments(os.Stdout, sc)
	} else {
		err = manet.RunExperiment(os.Stdout, strings.ToUpper(run), sc)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "done in %s\n", clock.elapsed())
	return nil
}
