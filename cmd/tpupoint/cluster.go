// The `cluster` verb: deterministic multi-tenant fleet simulation.
//
//	tpupoint cluster -presets                      (list named presets)
//	tpupoint cluster -preset smoke -seed 42
//	tpupoint cluster -preset rush -policy all -json
//	tpupoint -archive ./runs cluster -preset smoke -policy workload-affinity
//
// Every scheduled job runs the real workload→profiler→analyzer pipeline;
// with -archive the completed profiles are saved into the repository
// (run IDs "<preset>-<policy>-<jobID>", tagged with their tenant) so
// `runs list -tenant` and `runs diff` work across the fleet. The same
// seed and preset produce a bit-identical schedule, fairness report,
// and archives at any -parallelism.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// clusterCmd dispatches `tpupoint cluster`. dir is the global -archive
// directory ("" = don't persist archives); reg is the global -metrics
// registry (may be nil).
func clusterCmd(args []string, dir string, shards int, reg *obs.Registry) error {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	var (
		listPresets = fs.Bool("presets", false, "list the named cluster presets and exit")
		preset      = fs.String("preset", "smoke", "named fleet scenario (see -presets)")
		policy      = fs.String("policy", cluster.PolicyLeastLoad, "routing policy, or \"all\" to schedule under every policy")
		seed        = fs.Uint64("seed", 42, "simulation seed; same seed + preset = bit-identical schedule and archives")
		par         = fs.Int("parallelism", 0, "worker pool for the per-job profile pipelines (0 = GOMAXPROCS; results identical for any value)")
		jsonOut     = fs.Bool("json", false, "emit the fairness reports as JSON instead of tables")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("cluster: unexpected argument %q", fs.Arg(0))
	}
	if *listPresets {
		for _, name := range cluster.PresetNames() {
			spec, err := cluster.Preset(name, *seed)
			if err != nil {
				return err
			}
			jobs := 0
			for _, t := range spec.Tenants {
				jobs += t.Jobs
			}
			fmt.Printf("%-8s %3d workers, %d tenants, %4d jobs\n",
				name, spec.Workers, len(spec.Tenants), jobs)
		}
		return nil
	}

	policies := []string{*policy}
	if *policy == "all" {
		policies = cluster.Policies()
	}
	spec, err := cluster.Preset(*preset, *seed)
	if err != nil {
		return err
	}
	spec.Parallelism = *par
	c, err := cluster.New(spec)
	if err != nil {
		return err
	}

	var reports []*cluster.Report
	for _, p := range policies {
		res, err := c.Schedule(p, reg)
		if err != nil {
			return err
		}
		reports = append(reports, res.Report)
		if !*jsonOut {
			fmt.Print(res.Report.String())
		}

		if dir != "" {
			r, _, done, err := openRepoDir(dir, shards, true)
			if err != nil {
				return err
			}
			label := *preset + "-" + p
			saved, err := c.SaveArchives(r, res, label)
			done()
			if err != nil {
				return err
			}
			if saved != res.Report.Accepted {
				return fmt.Errorf("cluster: accepted %d jobs but archived %d", res.Report.Accepted, saved)
			}
			if !*jsonOut {
				fmt.Printf("archived:  %d runs labeled %q -> %s\n\n", saved, label, dir)
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(reports)
	}
	return nil
}
