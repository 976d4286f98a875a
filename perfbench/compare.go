package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// ledgerRow is one run's result keyed by its full config.
type ledgerRow struct {
	Config    configKey         `json:"config"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// appendRow appends row to a JSONL ledger file.
func appendRow(path string, row ledgerRow) error {
	b, err := json.Marshal(row)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRows reads a JSONL ledger.
func readRows(path string) ([]ledgerRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []ledgerRow
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r ledgerRow
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rows = append(rows, r)
	}
	return rows, sc.Err()
}

// groupKey is the part of a config two comparable rows share: everything
// except the seed and the revision.
func groupKey(c configKey) string {
	c.Seed, c.GitSHA = 0, ""
	b, _ := json.Marshal(c) // configKey has only marshalable fields
	return string(b)
}

// machineKey identifies the machine and toolchain alone.
func machineKey(c configKey) string {
	return fmt.Sprintf("%s/%s/GOMAXPROCS=%d/nproc=%d", c.CPUModel, c.GoVersion, c.GOMAXPROCS, c.NumCPU)
}

// compareMain compares two ledgers (old, new): per config group and
// metric, each side's median and quartiles and the change of medians.
// Rows from different machines or configs are never compared.
func compareMain(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare OLD.jsonl NEW.jsonl")
	}
	old, err := readRows(args[0])
	if err != nil {
		return err
	}
	cur, err := readRows(args[1])
	if err != nil {
		return err
	}
	return compareRows(old, cur, w)
}

func compareRows(old, cur []ledgerRow, w io.Writer) error {
	group := func(rows []ledgerRow) map[string][]ledgerRow {
		g := make(map[string][]ledgerRow)
		for _, r := range rows {
			g[groupKey(r.Config)] = append(g[groupKey(r.Config)], r)
		}
		return g
	}
	og, cg := group(old), group(cur)
	keys := make([]string, 0, len(og))
	for k := range og {
		if _, ok := cg[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		oldM, curM := machines(old), machines(cur)
		return fmt.Errorf("no config appears in both ledgers (machines %v vs %v); rows from different machines or configs are not comparable", oldM, curM)
	}
	for _, k := range keys {
		o, c := og[k], cg[k]
		fmt.Fprintf(w, "%s on %s: %d old rows, %d new rows\n", o[0].Config.Workload, machineKey(o[0].Config), len(o), len(c))
		names := make([]string, 0)
		for n := range o[0].Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "  %-44s %12s %12s %12s %12s %8s\n", "metric", "old q1", "old median", "new median", "new q3", "change")
		for _, n := range names {
			ov, cv := values(o, n), values(c, n)
			if len(ov) == 0 || len(cv) == 0 {
				continue
			}
			oq1, om, _ := quartiles(ov)
			_, cm, cq3 := quartiles(cv)
			fmt.Fprintf(w, "  %-44s %12.6g %12.6g %12.6g %12.6g %+7.1f%%\n", n, oq1, om, cm, cq3, 100*ratio(cm-om, om))
		}
	}
	return nil
}

func values(rows []ledgerRow, name string) []float64 {
	var out []float64
	for _, r := range rows {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func machines(rows []ledgerRow) []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range rows {
		if k := machineKey(r.Config); !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
