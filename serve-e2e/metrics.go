package main

// The metrics BENCHMARK.json declares, with their units. A run reports
// every one of its mode's metrics or is not correct; bench_test.go checks
// these lists against BENCHMARK.json.
type declared struct{ name, unit string }

var endToEndMetrics = []declared{
	{"setup_s", "s"},
	{"cpu_ms_per_req", "ms"},
	{"allocs_per_req", "count"},
	{"alloc_bytes_per_req", "B"},
	{"heap_peak_mb", "MiB"},
}

var perLayerMetrics = []declared{
	{"converter.convert_s", "s"},
	{"serving.load_s", "s"},
	{"serving.first_predict_ms", "ms"},
	{"http.handler_ms.p50", "ms"},
	{"http.handler_ms.p95", "ms"},
	{"http.handler_self_ms.p50", "ms"},
	{"http.transport_ms.p50", "ms"},
	{"http.decode_ms_per_instance", "ms"},
	{"http.encode_ms_per_instance", "ms"},
	{"sched.queue_wait_ms.p50", "ms"},
	{"sched.queue_wait_ms.p95", "ms"},
	{"sched.gather_ms.p50", "ms"},
	{"sched.execute_ms.p50", "ms"},
	{"sched.execute_ms.p95", "ms"},
	{"sched.split_ms.p50", "ms"},
	{"sched.batch_size.mean", "count"},
	{"sched.rejected", "count"},
	{"graph.load_ms", "ms"},
	{"graph.predict_ms.b1", "ms"},
	{"graph.predict_ms.b8", "ms"},
	{"graph.predict_ms.b1.unobserved", "ms"},
	{"graph.allocs_per_predict.b1", "count"},
	{"graph.allocs_per_predict.b1.unobserved", "count"},
	{"graph.fast_path", "count"},
	{"graph.dispatches_per_instance", "count"},
	{"kernel.FusedConv2D.ms_per_instance", "ms"},
	{"kernel.FusedDepthwiseConv2dNative.ms_per_instance", "ms"},
	{"kernel._FusedMatMul.ms_per_instance", "ms"},
	{"kernel.other.ms_per_instance", "ms"},
	{"kernel.gflop_per_s", "GFLOP/s"},
	{"kernel.mb_moved_per_instance", "MB"},
	{"bufpool.hit_ratio", "ratio"},
	{"bufpool.parked_mb", "MiB"},
	{"telemetry.events_per_instance", "count"},
	{"telemetry.trace_dropped", "count"},
	{"telemetry.scrape_ms", "ms"},
	{"telemetry.scrape_kb", "KB"},
	{"gc.cycles_per_100_req", "count"},
	{"gc.pause_p95_ms", "ms"},
	{"gc.cpu_share", "ratio"},
	{"trace.rps", "1/s"},
	{"trace.latency_p50_ms", "ms"},
	{"trace.latency_p95_ms", "ms"},
	{"trace.unaccounted_requests", "count"},
	{"client.overhead_ms_per_req", "ms"},
}
