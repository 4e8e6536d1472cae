package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// agree runs every selected workload as two sets of k runs of this same
// binary (seeds 1..k and k+1..2k, a fresh process per run, as the driver
// does) and prints, per end-to-end metric and workload, both medians,
// how much worse the second is than the first, each set's quartile
// spread as a share of its median, and PASS/FAIL against the metric's
// bound. setup_s is exempt from the spread rule, as in the driver.
func agree(selected []workload, k int, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	for _, w := range selected {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < k; i++ {
				seed := s*k + i + 1
				metrics, err := runSelf(self, w.def.Name, seed, seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.def.Name, seed, err)
				}
				for name, m := range metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		fmt.Printf("%-16s %-28s %14s %14s %8s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "worse", "spread A", "spread B", "bound")
		for _, def := range endToEnd {
			a, b := sets[0][def.Name], sets[1][def.Name]
			a1, am, a3 := quartiles(a)
			b1, bm, b3 := quartiles(b)
			worse := (bm - am) / am
			if def.Better == "higher" {
				worse = -worse
			}
			spreadA, spreadB := (a3-a1)/am, (b3-b1)/bm
			verdict := "PASS"
			if worse > *def.Bound || (def.Name != "setup_s" && (spreadA > *def.Bound || spreadB > *def.Bound)) {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("%-16s %-28s %14.4f %14.4f %+7.2f%% %7.2f%% %7.2f%% %5.0f%% %s\n",
				w.def.Name, def.Name, am, bm, 100*worse, 100*spreadA, 100*spreadB, 100**def.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d metric/workload pairs outside their bounds", failed)
	}
	return nil
}

// runSelf runs one workload in a child process and parses the result
// line it prints last.
func runSelf(self, workload string, seed int, seconds float64) (map[string]metricValue, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(outBytes))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var result struct {
		Correct bool                   `json:"correct"`
		Metrics map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal(last, &result); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	if !result.Correct {
		return nil, fmt.Errorf("run reported incorrect outputs")
	}
	return result.Metrics, nil
}
