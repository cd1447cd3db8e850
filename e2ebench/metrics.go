package main

// metric is one reported metric: its name and unit as BENCHMARK.json
// lists them, whether higher or lower is better, and for end-to-end
// metrics the bound a later change may worsen its median by.
type metric struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics an operator sees, reported by untraced runs.
var endToEnd = []metric{
	{"round_s.p50", "s", "lower", 0.25},
	{"round_s.tail", "s", "lower", 0.25},
	{"relays_per_s", "relays/s", "higher", 0.25},
	{"accuracy.p05", "ratio", "higher", 0.05},
	{"cpu_s_per_round", "s", "lower", 0.25},
	{"heap_peak_mb", "MiB", "lower", 0.25},
	{"ok_frac", "ratio", "higher", 0.02},
	{"v3bw_get_s.p50", "s", "lower", 0.25},
	{"v3bw_get_s.tail", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics traced runs report.
var perLayer = []metric{
	{"coord.pre_exec_s", "s", "lower", 0},
	{"coord.exec_s", "s", "lower", 0},
	{"coord.worker_busy_frac", "ratio", "higher", 0},
	{"coord.post_exec_s", "s", "lower", 0},
	{"coord.pool_hit_frac", "ratio", "higher", 0},
	{"coord.retries", "count", "lower", 0},
	{"coord.unmeasured", "count", "lower", 0},
	{"core.attempts_per_relay", "count", "lower", 0},
	{"core.slot_seconds_per_relay", "s", "lower", 0},
	{"core.abort_frac", "ratio", "higher", 0},
	{"wire.slot_s.p50", "s", "lower", 0},
	{"wire.slot_s.tail", "s", "lower", 0},
	{"wire.slot_overhead_s.p50", "s", "lower", 0},
	{"wire.dial_s.p50", "s", "lower", 0},
	{"wire.dials", "count", "lower", 0},
	{"wire.gbit_per_round", "Gbit", "higher", 0},
	{"wire.incomplete", "count", "lower", 0},
	{"cpu.cell_s", "s", "lower", 0},
	{"cpu.wire_s", "s", "lower", 0},
	{"cpu.core_s", "s", "lower", 0},
	{"cpu.coord_s", "s", "lower", 0},
	{"cpu.store_s", "s", "lower", 0},
	{"cpu.dirauth_s", "s", "lower", 0},
	{"cpu.rpc_s", "s", "lower", 0},
	{"cpu.obs_s", "s", "lower", 0},
	{"cpu.gc_s", "s", "lower", 0},
	{"cpu.other_s", "s", "lower", 0},
	{"store.append_s", "s", "lower", 0},
	{"store.appends", "count", "lower", 0},
	{"store.records", "count", "lower", 0},
	{"store.checkpoint_s", "s", "lower", 0},
	{"store.state_mb", "MiB", "lower", 0},
	{"dirauth.render_s", "s", "lower", 0},
	{"dirauth.decode_s", "s", "lower", 0},
	{"dirauth.submit_s.p50", "s", "lower", 0},
	{"dirauth.merge_submit_s", "s", "lower", 0},
	{"rpc.call_s.p50", "s", "lower", 0},
	{"rpc.transport_s.p50", "s", "lower", 0},
	{"rpc.errors", "count", "lower", 0},
	{"obs.publish_s", "s", "lower", 0},
	{"obs.get_bytes", "bytes", "lower", 0},
	{"gen.lag_s.tail", "s", "lower", 0},
	{"go.alloc_mb_per_round", "MiB", "lower", 0},
	{"go.gc_cycles_per_round", "count", "lower", 0},
	{"go.gc_pause_s", "s", "lower", 0},
	{"trace.unattributed_s", "s", "lower", 0},
	{"trace.overhead", "ratio", "lower", 0},
}

// counts are a run's operations and failures: slot assignments,
// submissions and /v3bw GETs attempted; unmeasured and inconclusive
// slots, rejected or failed submissions and failed GETs.
func counts(res *runResult) (attempted, failed int) {
	for _, rr := range res.rounds {
		for _, cr := range rr.cols {
			attempted += cr.rep.Scheduled + 1
			failed += len(cr.rep.Unmeasured) + cr.rep.Inconclusive
			if cr.submitErr != nil {
				failed++
			}
		}
		attempted++
		if rr.getErr != nil {
			failed++
		}
		failed += rr.merge.rejected
	}
	attempted += len(res.loop.latencies) + res.loop.failed
	failed += res.loop.failed
	return attempted, failed
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// roundSeconds are the measured rounds' wall times, from the first
// RelaySource call to the merged /v3bw read back.
func roundSeconds(rounds []*roundRec) []float64 {
	out := make([]float64, 0, len(rounds))
	for _, rr := range rounds {
		out = append(out, seconds(rr.end-rr.start))
	}
	return out
}

// endToEndValues reduces an untraced run to its end-to-end metrics.
func endToEndValues(res *runResult) map[string]float64 {
	rs := roundSeconds(res.rounds)
	var relays, cycle float64
	var acc []float64
	for _, rr := range res.rounds {
		relays += float64(rr.published)
		acc = append(acc, rr.acc...)
		cycle += seconds(rr.cycleEnd - rr.start)
	}
	attempted, failed := counts(res)
	lat := res.loop.latencies
	return map[string]float64{
		"round_s.p50":     median(rs),
		"round_s.tail":    tailAt(rs, roundTailQ).Value,
		"relays_per_s":    relays / cycle,
		"accuracy.p05":    quantile(acc, 0.05),
		"cpu_s_per_round": seconds(res.cpuNs) / float64(len(res.rounds)),
		"heap_peak_mb":    float64(res.heapPeak) / (1 << 20),
		"ok_frac":         1 - float64(failed)/float64(attempted),
		"v3bw_get_s.p50":  median(lat),
		"v3bw_get_s.tail": quantile(lat, getTailQ),
		"setup_s":         median(res.setups),
	}
}

// perLayerValues reduces a traced run to its per-layer metrics. Span-based
// timings come from the traced rounds; counts and CPU cover every measured
// round.
func perLayerValues(res *runResult) map[string]float64 {
	v := make(map[string]float64)
	n := float64(len(res.rounds))
	var traced, untraced []*roundRec
	for _, rr := range res.rounds {
		if rr.traced {
			traced = append(traced, rr)
		} else {
			untraced = append(untraced, rr)
		}
	}
	workers := float64(res.s.workers * res.s.columns)

	var pre, exec, post, busy, unattr []float64
	var appendS, ckptS, renderS, decodeS, mergeSubmit, calls, transport, slotWalls, overheads, dials, submits, publishes []float64
	for _, rr := range traced {
		var first, lastEnd, snap, srcAt int64
		var wall, appendNs, ckptNs, renderNs int64
		for i, cr := range rr.cols {
			if i == 0 || cr.srcAt < srcAt {
				srcAt = cr.srcAt
			}
			if i == 0 || cr.firstSlot < first {
				first = cr.firstSlot
			}
			lastEnd = max(lastEnd, cr.lastSlotEnd)
			snap = max(snap, cr.snapAt)
			wall += cr.slotWall
			appendNs += cr.store.appendNs
			ckptNs += cr.store.checkpointNs
			renderNs += cr.renderNs
			calls = append(calls, seconds(cr.callNs))
			transport = append(transport, seconds(cr.callNs-cr.handlerNs))
			slotWalls = append(slotWalls, cr.slotWalls...)
			overheads = append(overheads, cr.overheads...)
			dials = append(dials, cr.dials...)
		}
		pre = append(pre, seconds(first-srcAt))
		exec = append(exec, seconds(lastEnd-first))
		post = append(post, seconds(snap-lastEnd))
		if lastEnd > first {
			busy = append(busy, float64(wall)/(float64(lastEnd-first)*workers))
		}
		appendS = append(appendS, seconds(appendNs+rr.mergeStore.appendNs))
		ckptS = append(ckptS, seconds(ckptNs+rr.mergeStore.checkpointNs))
		renderS = append(renderS, seconds(renderNs))
		decodeS = append(decodeS, seconds(rr.merge.decodeNs))
		mergeSubmit = append(mergeSubmit, seconds(rr.merge.mergeSubmitNs))
		submits = append(submits, rr.merge.submits...)
		publishes = append(publishes, rr.merge.publishes...)
		unattr = append(unattr, seconds(rr.end-rr.start-unionLength(instrumented(rr), rr.start, rr.end)))
	}
	v["coord.pre_exec_s"] = median(pre)
	v["coord.exec_s"] = median(exec)
	v["coord.post_exec_s"] = median(post)
	v["coord.worker_busy_frac"] = median(busy)
	if h, m := res.pool[0], res.pool[1]; h+m > 0 {
		v["coord.pool_hit_frac"] = float64(h) / float64(h+m)
	}

	var retries, unmeasured, slots, measured, dataSecs, cancelled, incomplete, nDials, appends, records, rpcErrors int
	var bytes float64
	var getBytes []float64
	for _, rr := range res.rounds {
		for _, cr := range rr.cols {
			retries += cr.rep.Retries
			unmeasured += len(cr.rep.Unmeasured)
			measured += cr.measured
			slots += cr.slots
			dataSecs += cr.dataSecs
			cancelled += cr.cancelled
			incomplete += cr.incomplete
			nDials += len(cr.dials)
			bytes += cr.bytes
			appends += cr.store.appends
			records += cr.store.records
			if cr.submitErr != nil {
				rpcErrors++
			}
		}
		appends += rr.mergeStore.appends
		records += rr.mergeStore.records
		getBytes = append(getBytes, float64(rr.bodyLen))
	}
	v["coord.retries"] = float64(retries) / n
	v["coord.unmeasured"] = float64(unmeasured) / n
	if measured > 0 {
		v["core.attempts_per_relay"] = float64(slots) / float64(measured)
		v["core.slot_seconds_per_relay"] = float64(dataSecs) / float64(measured)
	}
	if slots > 0 {
		v["core.abort_frac"] = float64(cancelled) / float64(slots)
	}
	v["wire.slot_s.p50"] = median(slotWalls)
	v["wire.slot_s.tail"] = tailAt(slotWalls, tailQuantile(len(slotWalls))).Value
	v["wire.slot_overhead_s.p50"] = median(overheads)
	v["wire.dial_s.p50"] = median(dials)
	v["wire.dials"] = float64(nDials) / n
	if res.s.wire {
		v["wire.gbit_per_round"] = bytes * 8 / 1e9 / n
		v["wire.incomplete"] = float64(incomplete) / n
	}
	for _, l := range append(cpuLayers, "gc", "other") {
		v["cpu."+l+"_s"] = seconds(res.cpu[l]) / n
	}
	v["store.append_s"] = median(appendS)
	v["store.appends"] = float64(appends) / n
	v["store.records"] = float64(records) / n
	v["store.checkpoint_s"] = median(ckptS)
	v["store.state_mb"] = res.stateMB
	v["dirauth.render_s"] = median(renderS)
	v["dirauth.decode_s"] = median(decodeS)
	v["dirauth.submit_s.p50"] = median(submits)
	v["dirauth.merge_submit_s"] = median(mergeSubmit)
	v["rpc.call_s.p50"] = median(calls)
	v["rpc.transport_s.p50"] = median(transport)
	v["rpc.errors"] = float64(rpcErrors)
	v["obs.publish_s"] = median(publishes)
	v["obs.get_bytes"] = median(getBytes)
	v["gen.lag_s.tail"] = tailAt(res.loop.lags, tailQuantile(len(res.loop.lags))).Value
	v["go.alloc_mb_per_round"] = float64(res.mem1.TotalAlloc-res.mem0.TotalAlloc) / (1 << 20) / n
	v["go.gc_cycles_per_round"] = float64(res.mem1.NumGC-res.mem0.NumGC) / n
	v["go.gc_pause_s"] = seconds(int64(res.mem1.PauseTotalNs-res.mem0.PauseTotalNs)) / n
	v["trace.unattributed_s"] = median(unattr)
	if u := median(roundSeconds(untraced)); u > 0 {
		v["trace.overhead"] = median(roundSeconds(traced)) / u
	}
	return v
}
