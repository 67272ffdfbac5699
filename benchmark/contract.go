package main

import (
	"encoding/json"
	"strings"
)

// The tables in this file are the benchmark's contract: the workload
// names with the reason each exists, the end-to-end metrics with their
// direction and regression bound, and the per-layer metrics. The root
// BENCHMARK.json is rendered from them (go run . -print-contract), and
// the package test fails when the two drift apart or when a run prints
// a metric the tables do not name.

// runSeconds caps the measured phases of a run under the driver. A
// run measures five instances over a fixed number of operations each,
// sized to take 7 to 12 s in all on the box the benchmark was defined
// on, which is at times half again as slow as at others; the cap cuts
// a phase short only on a system more than half again slower still.
const runSeconds = 20

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"serve-read", "HTTP reads of one 15k-element document by 2 clients, one edit per 250 operations of a client: result-cache hits plus transport, so web, client and plan own a read; each edit clones the whole document."},
	{"tenants-write", "HTTP, 64 small documents, Zipf popularity, 70% edits under durability Always: cloning is cheap, so the journal's fsync and the transport own a write."},
	{"embed-paged", "In-process live handle over 50k elements whose label index (514 pages) exceeds its 64-page cache: store, pagestore and scheme own the time; no HTTP, clone or journal."},
	{"label-updates", "The paper's experiment on Hamlet: bulk labelling, uniform and single-gap inserts, subtree inserts and deletes, then Q1-Q5: cdbs, bitstr, containment and xmltree own the time."},
}

type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen; per-layer metrics have none.
	Bound float64
	// Moves names, for a per-layer metric, the metrics a user sees that
	// a change to it should move. BENCHMARK.json has no place for it; the
	// report prints it beside the value.
	Moves []string
}

// endToEnd lists the metrics that carry a bound. Every workload prints
// every one of them, none can be zero, and each repeats from run to run
// well inside its bound, which is why the rest of the issue's twelve
// live in perLayer: relabels_per_kedit is always 0 under CDBS,
// journal_bytes_per_edit and recover_s do not exist on the embedded
// workloads, and the rate and the four latencies follow the sandbox's
// speed.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.10},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "label_bytes_per_node", Unit: "B", Better: "lower", Bound: 0.02},
}

// ladderLayers are the layer names self times are reported for, in
// wrap order from the innermost out.
var (
	readLayers  = []string{"store", "xpath", "plan", "dyndoc", "dynxml", "catalog", "web", "client"}
	writeLayers = []string{"cdbs", "scheme", "store", "dyndoc", "journal", "dynxml", "catalog", "web", "client"}
)

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	// layer appends one layer's metrics, which share the list of metrics
	// they should move. A name ending in "+" is better when higher.
	layer := func(moves string, unit string, names ...string) {
		for _, n := range names {
			d := metricDef{Name: strings.TrimSuffix(n, "+"), Unit: unit, Better: "lower", Moves: strings.Fields(moves)}
			if d.Name != n {
				d.Better = "higher"
			}
			defs = append(defs, d)
		}
	}
	const kernels = "client.write_p50_us client.ops_per_s label_bytes_per_node setup_s"
	layer(kernels, "ns", "cdbs.between_ns", "qed.between_ns", "bitstr.compare_ns")
	layer(kernels, "us", "cdbs.encode_us_per_knode")
	layer(kernels, "bits", "cdbs.code_len_bits_p50", "cdbs.code_len_bits_max")

	const labels = "client.write_p50_us setup_s journal.recover_s"
	layer(labels, "us", "scheme.build_us_per_knode", "scheme.insert_child_us", "scheme.insert_subtree_us", "scheme.delete_us", "scheme.clone_us")
	// The paper's headline: 0 under CDBS and QED. An insert that
	// re-labels is a failed operation, so the bound is absolute.
	layer("client.ops_per_s", "count", "scheme.relabels_per_kedit")

	layer("setup_s journal.recover_s", "us", "xmltree.parse_us_per_knode", "xmltree.serialize_us_per_knode")

	const index = "client.read_p50_us client.write_p50_us client.ops_per_s setup_s heap_live_mb"
	layer(index, "us", "store.build_us_per_knode", "store.add_us", "store.remove_us", "store.ids_us", "store.clone_us")
	layer(index, "B", "store.footprint_bytes_per_node")
	layer(index, "ratio", "pagestore.cache_hit_ratio+")
	layer(index, "count", "pagestore.pages_read_per_op", "pagestore.writebacks_per_op", "pagestore.allocated_pages")

	const snapshot = "client.write_p50_us alloc_kb_per_op client.read_p99_us"
	layer(snapshot, "us", "dyndoc.insert_us", "dyndoc.clone_us")
	layer(snapshot, "KB", "dyndoc.clone_kb")
	layer(snapshot, "us", "dyndoc.snapshot_edit_us", "dyndoc.snapshot_query_us")

	const log = "client.write_p50_us client.write_p99_us client.ops_per_s journal.recover_s"
	layer(log, "us", "journal.encode_us", "journal.append_wait_us")
	layer(log, "count", "journal.fsyncs_per_edit", "journal.group_size_mean+")
	layer(log, "ms", "journal.checkpoint_ms")
	layer(log, "us", "journal.replay_us_per_kedit")
	// Listed by the issue as end-to-end; the embedded workloads have no
	// journal, and an end-to-end metric is printed by every workload.
	layer("client.write_p50_us", "B", "journal.bytes_per_edit")
	layer("setup_s", "s", "journal.recover_s")

	const queries = "client.read_p50_us client.read_p99_us"
	for _, m := range []string{"xpath.parse_us", "xpath.eval_us", "plan.eval_us", "plan.cached_eval_us"} {
		layer(queries, "us", m+".light", m+".heavy")
	}
	layer(queries, "ratio", "plan.result_hit_ratio+", "plan.plan_hit_ratio+")

	layer("client.read_p50_us", "us", "dynxml.handle_query_us")
	layer("client.write_p50_us", "us", "dynxml.handle_edit_us")

	layer("client.read_p50_us", "us", "catalog.acquire_us")
	layer("journal.recover_s", "ms", "catalog.cold_open_ms")
	layer("heap_live_mb", "B", "catalog.resident_bytes")

	layer("client.read_p50_us client.ops_per_s", "us", "web.query_handler_us")
	layer("client.write_p50_us client.ops_per_s", "us", "web.edit_handler_us")
	layer("client.read_p50_us", "B", "web.resp_bytes_per_read")

	layer("client.read_p50_us client.ops_per_s", "us", "client.query_rtt_us")
	layer("client.write_p50_us client.ops_per_s", "us", "client.edit_rtt_us")
	layer("client.read_p50_us client.ops_per_s", "us", "client.transport_self_us")
	// The caller-observed rate and latencies: listed by the issue as
	// end-to-end, and what every layer's time adds up to. They follow the
	// sandbox's speed, which moves by half within minutes, so they carry
	// no bound (see README.md, Repeatability). The one bounded metric
	// they move is setup_s, through the 2 000 warm-up operations.
	layer("setup_s", "1/s", "client.ops_per_s+")
	layer("setup_s", "us", "client.read_p50_us", "client.write_p50_us", "client.read_p99_us", "client.write_p99_us")

	const tails = "client.read_p99_us client.write_p99_us"
	layer(tails, "count", "runtime.num_gc")
	layer(tails, "ms", "runtime.gc_pause_total_ms")
	layer("heap_live_mb", "B", "runtime.heap_growth_bytes_per_op")
	layer(tails, "ratio", "trace.overhead_ratio")
	for _, l := range readLayers {
		layer("client.read_p50_us", "us", "self.read."+l+"_us")
	}
	for _, l := range writeLayers {
		layer("client.write_p50_us", "us", "self.write."+l+"_us")
	}
	return defs
}

// contractJSON renders BENCHMARK.json from the tables above.
func contractJSON() ([]byte, error) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	out := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, m := range endToEnd {
		out.EndToEnd = append(out.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		out.PerLayer = append(out.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
