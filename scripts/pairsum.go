//go:build ignore

// pairsum summarises the runs scripts/pairs.sh made: for each workload
// and gated metric of BENCHMARK.json, the parent's and the change's
// medians, the change between them, the parent's IQR, how many pairs
// read lower and equal, and a verdict against the metric's bound; then
// operations failed per side; then, given the traced runs, every ladder
// row whose median moved by more than twice the parent's IQR.
//
//	go run scripts/pairsum.go BENCHMARK.json parent.t0 change.t0 [parent.t1 change.t1]
//
// Each input line is a seed followed by a report line of the benchmark
// (e2e, ops or layer). Quartiles are Python's statistics.quantiles(n=4),
// the "exclusive" method. It exits 1 if a metric is out of its bound or
// the change fails a larger share of operations than the parent.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

type key struct{ workload, metric string }

// side is one commit's runs: per workload x metric the value at each
// seed, and per workload the operations attempted and failed.
type side struct {
	e2e, layer map[key]map[int]float64
	attempted  map[string]int
	failed     map[string]int
}

func read(path string) (*side, error) {
	s := &side{e2e: map[key]map[int]float64{}, layer: map[key]map[int]float64{},
		attempted: map[string]int{}, failed: map[string]int{}}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) < 7 {
			return nil, fmt.Errorf("%s: short line %q", path, sc.Text())
		}
		seed, err1 := strconv.Atoi(fs[0])
		v, err2 := strconv.ParseFloat(fs[4], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%s: bad line %q", path, sc.Text())
		}
		k := key{fs[2], fs[3]}
		switch fs[1] {
		case "ops": // seed ops W ops_attempted N ops_failed M
			m, _ := strconv.Atoi(fs[6])
			s.attempted[fs[2]] += int(v)
			s.failed[fs[2]] += m
		case "e2e":
			put(s.e2e, k, seed, v)
		case "layer":
			put(s.layer, k, seed, v)
		}
	}
	return s, sc.Err()
}

func put(m map[key]map[int]float64, k key, seed int, v float64) {
	if m[k] == nil {
		m[k] = map[int]float64{}
	}
	m[k][seed] = v
}

func values(byseed map[int]float64) []float64 {
	vs := make([]float64, 0, len(byseed))
	for _, v := range byseed {
		vs = append(vs, v)
	}
	sort.Float64s(vs)
	return vs
}

// quartiles returns the quartiles of sorted vs, the second the median,
// as Python's statistics.quantiles(vs, n=4) computes them.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	n := len(vs)
	if n < 2 {
		return vs[0], vs[0], vs[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (vs[j-1]*(4-delta) + vs[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

type gated struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func main() {
	if len(os.Args) != 4 && len(os.Args) != 6 {
		fmt.Fprintln(os.Stderr, "usage: pairsum BENCHMARK.json parent.t0 change.t0 [parent.t1 change.t1]")
		os.Exit(2)
	}
	raw, err := os.ReadFile(os.Args[1])
	check(err)
	var contract struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []gated                 `json:"end_to_end"`
	}
	check(json.Unmarshal(raw, &contract))
	p, err := read(os.Args[2])
	check(err)
	c, err := read(os.Args[3])
	check(err)

	bad := false
	fmt.Printf("%-14s %-21s %11s %11s %8s %10s %6s %6s  %s\n",
		"workload", "metric", "parent", "change", "change", "parent IQR", "lower", "equal", "verdict")
	for _, w := range contract.Workloads {
		for _, g := range contract.EndToEnd {
			k := key{w.Name, g.Name}
			if p.e2e[k] == nil || c.e2e[k] == nil {
				continue
			}
			verdict, lower, equal, pairs := judge(g, p.e2e[k], c.e2e[k])
			bad = bad || verdict == "OUT OF BOUND"
			pv, cv := values(p.e2e[k]), values(c.e2e[k])
			q1, mp, q3 := quartiles(pv)
			_, mc, _ := quartiles(cv)
			fmt.Printf("%-14s %-21s %11.6g %11.6g %7.2f%% %10.4g %3d/%-2d %3d/%-2d  %s\n",
				w.Name, g.Name, mp, mc, 100*(mc-mp)/mp, q3-q1, lower, pairs, equal, pairs, verdict)
		}
	}
	for _, w := range contract.Workloads {
		if pa, ca := p.attempted[w.Name], c.attempted[w.Name]; pa > 0 && ca > 0 {
			more := float64(c.failed[w.Name])/float64(ca) > float64(p.failed[w.Name])/float64(pa)
			note := ""
			if more {
				note, bad = "  MORE FAILURES", true
			}
			fmt.Printf("ops %-14s failed: parent %d of %d, change %d of %d%s\n", w.Name, p.failed[w.Name], pa, c.failed[w.Name], ca, note)
		}
	}
	if len(os.Args) == 6 {
		pt, err := read(os.Args[4])
		check(err)
		ct, err := read(os.Args[5])
		check(err)
		ladder(pt, ct)
	}
	if bad {
		os.Exit(1)
	}
}

// judge pairs the runs by seed and says how the change's median stands
// against the parent's: OUT OF BOUND when worse by more than the bound;
// unresolved when a side's IQR exceeds the bound and not every change
// run is better than every parent run; a gain when the change is better
// in at least nine pairs of ten and the medians differ by more than the
// parent's IQR; else within the bound.
func judge(g gated, p, c map[int]float64) (verdict string, lower, equal, pairs int) {
	sign := 1.0 // how much worse a positive difference is
	if g.Better == "higher" {
		sign = -1
	}
	better := 0
	for seed, pv := range p {
		cv, ok := c[seed]
		if !ok {
			continue
		}
		pairs++
		switch {
		case cv == pv:
			equal++
		case cv < pv:
			lower++
		}
		if sign*(cv-pv) < 0 {
			better++
		}
	}
	pv, cv := values(p), values(c)
	pq1, mp, pq3 := quartiles(pv)
	cq1, mc, cq3 := quartiles(cv)
	worse := sign * (mc - mp) / mp
	allBetter := cv[len(cv)-1] < pv[0]
	if sign < 0 {
		allBetter = cv[0] > pv[len(pv)-1]
	}
	switch {
	case worse > g.Bound:
		return "OUT OF BOUND", lower, equal, pairs
	case ((pq3-pq1)/mp > g.Bound || (cq3-cq1)/mc > g.Bound) && !allBetter:
		return "unresolved: spread above the bound", lower, equal, pairs
	case 10*better >= 9*pairs && math.Abs(mc-mp) > pq3-pq1:
		return "gain", lower, equal, pairs
	}
	return "within the bound", lower, equal, pairs
}

// ladder flags every traced row whose change median moved from the
// parent's by more than twice the parent's IQR, and says how many of
// how many rows that is: on two runs of one commit, the false alarms.
func ladder(p, c *side) {
	keys := make([]key, 0, len(p.layer))
	for k := range p.layer {
		if c.layer[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i].workload < keys[j].workload || keys[i].workload == keys[j].workload && keys[i].metric < keys[j].metric
	})
	flagged := 0
	for _, k := range keys {
		q1, mp, q3 := quartiles(values(p.layer[k]))
		_, mc, _ := quartiles(values(c.layer[k]))
		if math.Abs(mc-mp) <= 2*(q3-q1) {
			continue
		}
		if flagged++; flagged == 1 {
			fmt.Printf("\nladder rows moved by more than twice the parent's IQR\n%-14s %-34s %11s %11s %8s %10s\n",
				"workload", "row", "parent", "change", "change", "parent IQR")
		}
		fmt.Printf("%-14s %-34s %11.6g %11.6g %7.2f%% %10.4g\n", k.workload, k.metric, mp, mc, 100*(mc-mp)/mp, q3-q1)
	}
	fmt.Printf("\n%d of %d ladder rows flagged\n", flagged, len(keys))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pairsum:", err)
		os.Exit(2)
	}
}
