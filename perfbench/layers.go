package main

import "strings"

// layerUnit is the unit of a per-layer metric, derived from its name.
func layerUnit(name string) string {
	switch {
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_frac"):
		return "ratio"
	case strings.HasSuffix(name, "_bytes") || strings.HasSuffix(name, "bytes_per_step"):
		return "B"
	}
	return "count"
}

// layerMetrics derives one traced repetition's per-layer metrics. Times are
// rank 0's, in ms per step unless the name says otherwise; a metric of a
// layer the workload bypasses is 0.
//
// Self time is a span's duration minus the time its child spans cover
// (compress.exchange ⊃ comm.send; comm.op ⊃ compress.exchange):
//
//	models.self_ms   = forward/backward (cluster's compute phase)
//	compress.self_ms = encode + exchange − sends inside exchanges
//	                   (recv waits and reconstruct stay in compress: receives
//	                   have no observer)
//	comm.self_ms     = op dispatch (op − its exchange) + sends inside exchanges
//	cluster.self_ms  = step − compute − encode − exposed sync wait
//	elastic.self_ms  = snapshot persistence
//
// On lstm-ckpt, elastic.Job installs its own in-process group runner, so
// the comm observer hooks are out of the benchmark's reach: comm.op_ms is
// taken from the exchange spans (one posted op is one bucket exchange) and
// comm.send_*, comm.sends_per_step and comm.group_setup_ms are 0.
//
// trace.unaccounted_frac is the share of rank 0's run wall time that no
// step phase or snapshot covers: sampling, evaluation, snapshot capture and
// barrier, the final dense synchronisation (training); posting and loop
// overhead (exchange).
func layerMetrics(rp *rep, tr *tracer) map[string]float64 {
	tr.link()
	cover := tr.childCover()
	steps := float64(rp.steps)
	perStep := func(ns int64) float64 { return float64(ns) / 1e6 / steps }
	var enc, exch, exchSelf, opSelf, sendCover, snap, wait, spans int64
	var opMS, exchMS, sendMS []float64
	var calls, sends int
	encAlg, exchAlg := map[string]int64{}, map[string]int64{}
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.rank != 0 {
			continue
		}
		spans++
		d := s.dur()
		switch s.name {
		case spanEncode:
			enc += d
			encAlg[s.alg] += d
			calls++
		case spanExchange:
			exch += d
			exchAlg[s.alg] += d
			exchSelf += d - cover[i]
			sendCover += cover[i]
			exchMS = append(exchMS, float64(d)/1e6)
			calls++
		case spanOp:
			opSelf += d - cover[i]
			opMS = append(opMS, float64(d)/1e6)
		case spanSend:
			if s.parent >= 0 {
				sends++
				sendMS = append(sendMS, float64(d)/1e6)
			}
		case spanSnapshot:
			snap += d
		case spanWait:
			wait += d
		}
	}
	// The in-process runner elastic.Job installs exposes no op observer;
	// there each posted op is exactly one bucket exchange.
	if len(opMS) == 0 {
		opMS = exchMS
	}
	m := map[string]float64{
		"compress.encode_ms":      perStep(enc),
		"compress.exchange_ms":    perStep(exch),
		"compress.calls_per_step": float64(calls) / steps,
		"compress.self_ms":        perStep(enc + exchSelf),
		"comm.op_ms.p50":          quantile(opMS, 0.5),
		"comm.op_ms.p99":          quantile(opMS, 0.99),
		"comm.op_samples":         float64(len(opMS)),
		"comm.send_ms.p50":        quantile(sendMS, 0.5),
		"comm.send_ms.p99":        quantile(sendMS, 0.99),
		"comm.send_samples":       float64(len(sendMS)),
		"comm.sends_per_step":     float64(sends) / steps,
		"comm.bytes_per_step":     rp.bytes,
		"comm.wait_ms":            perStep(wait),
		"comm.group_setup_ms":     float64(tr.groupSetup) / 1e6,
		"comm.self_ms":            perStep(opSelf + sendCover),
		"elastic.snapshot_ms":     0,
		"elastic.snapshot_bytes":  0,
		"elastic.snapshots":       float64(rp.snapshots),
		"elastic.self_ms":         perStep(snap),
		"trace.spans_per_step":    float64(spans) / steps,
	}
	for _, a := range exchangeAlgs {
		m["compress.encode_ms."+a] = perStep(encAlg[a])
		m["compress.exchange_ms."+a] = perStep(exchAlg[a])
	}
	if rp.snapshots > 0 {
		m["elastic.snapshot_ms"] = rp.snapSec * 1e3 / float64(rp.snapshots)
		m["elastic.snapshot_bytes"] = float64(rp.snapBytes) / float64(rp.snapshots)
	}
	var cl struct{ compute, encode, sync, step, outside, self float64 }
	wall := rp.runWall * 1e3 / steps
	unaccounted := wall - perStep(enc) - perStep(wait)
	if res := rp.res; res != nil {
		cl.compute = res.AvgComputeSec * 1e3
		cl.encode = res.AvgEncodeSec * 1e3
		cl.sync = res.AvgSyncSec * 1e3
		cl.step = res.AvgStepSec * 1e3
		cl.outside = wall - cl.step
		cl.self = cl.step - cl.compute - cl.encode - cl.sync
		unaccounted = cl.outside - perStep(snap)
	}
	m["cluster.compute_ms"] = cl.compute
	m["cluster.encode_ms"] = cl.encode
	m["cluster.sync_wait_ms"] = cl.sync
	m["cluster.step_ms"] = cl.step
	m["cluster.outside_step_ms"] = cl.outside
	m["cluster.self_ms"] = cl.self
	m["models.self_ms"] = cl.compute
	m["trace.unaccounted_frac"] = unaccounted / wall
	return m
}
