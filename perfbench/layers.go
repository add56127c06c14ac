package main

import (
	"strings"
	"time"
)

// perLayer computes the traced run's metrics: span medians around the
// calls into each layer, the layers' own counters, and the stage replay.
// A layer a workload bypasses reads 0. plain is the untraced pass over the
// same work list, for the tracing overhead.
func perLayer(plain, tp pass, tr *tracer, st stageTimes) result {
	c := tp.c
	res := result{
		attempted: plain.attempted + tp.attempted,
		failed:    len(plain.failed) + len(tp.failed),
	}
	res.correct = res.failed == 0

	spanMs := func(name string) (float64, int) {
		wall, _ := tr.durations(name)
		return quantile(durationsMs(wall), 0.5), len(wall)
	}
	p50ms := func(ds []time.Duration) (float64, int) { return quantile(durationsMs(ds), 0.5), len(ds) }
	p50us := func(ds []time.Duration) (float64, int) { return 1e3 * quantile(durationsMs(ds), 0.5), len(ds) }
	pipeline := float64(sum(st.pipeline))
	share := func(ds []time.Duration) (float64, int) { return ratio(float64(sum(ds)), pipeline), len(ds) }
	items := float64(c.batch.Items)
	add := func(name, unit string, v float64, n int) {
		res.metrics = append(res.metrics, metric{name, unit, v, n})
	}
	addf := func(name, unit string, f func() (float64, int)) {
		v, n := f()
		add(name, unit, v, n)
	}

	addf("ga.evaluate_ms_p50", "ms", func() (float64, int) { return spanMs("ga.evaluate") })
	addf("ga.breed_ms_p50", "ms", func() (float64, int) { return spanMs("ga.breed") })

	add("core.batch_measured_ratio", "ratio", ratio(float64(c.batch.Measured), items), int(c.batch.Items))
	add("core.batch_memo_hit_ratio", "ratio", ratio(float64(c.batch.MemoHits), items), int(c.batch.Items))
	add("core.batch_dedup_ratio", "ratio", ratio(float64(c.batch.DedupHits), items), int(c.batch.Items))
	addf("core.sweep_batch_ms_p50", "ms", func() (float64, int) { return spanMs("core.sweep_batch") })

	addf("uarch.run_ms_p50", "ms", func() (float64, int) { return p50ms(st.uarch) })
	addf("uarch.share", "ratio", func() (float64, int) { return share(st.uarch) })
	traceLookups := c.traceHits + c.traceMisses
	add("uarch.trace_hit_ratio", "ratio", ratio(float64(c.traceHits), float64(traceLookups)), int(traceLookups))
	add("uarch.extrapolated_cycles", "count", float64(c.extrapolated), 1)

	addf("power.current_self_ms_p50", "ms", func() (float64, int) { return p50ms(st.power) })
	addf("power.share", "ratio", func() (float64, int) { return share(st.power) })
	addf("dsp.rfft_us_p50", "us", func() (float64, int) { return p50us(st.rfft) })
	addf("dsp.share", "ratio", func() (float64, int) { return share(st.rfft) })
	addf("pdn.spectra_self_us_p50", "us", func() (float64, int) { return p50us(st.pdnSelf) })
	addf("pdn.share", "ratio", func() (float64, int) { return share(st.pdnSelf) })
	addf("em.combine_us_p50", "us", func() (float64, int) { return p50us(st.em) })
	addf("em.share", "ratio", func() (float64, int) { return share(st.em) })
	addf("instrument.measure_peak_us_p50", "us", func() (float64, int) { return p50us(st.instrument) })
	addf("instrument.share", "ratio", func() (float64, int) { return share(st.instrument) })

	spectraLookups := c.spectraHits + c.spectraMisses
	add("platform.spectra_hit_ratio", "ratio", ratio(float64(c.spectraHits), float64(spectraLookups)), int(spectraLookups))
	addf("platform.ladder_ms_p50", "ms", func() (float64, int) { return p50ms(st.ladder) })
	addf("platform.rung_us_p50", "us", func() (float64, int) { return p50us(st.rung) })
	addf("platform.build_ms_p50", "ms", func() (float64, int) { return spanMs("platform.build") })

	addf("vmin.shmoo_ms_p50", "ms", func() (float64, int) { return spanMs("vmin.shmoo") })

	var hits, misses, puts, corrupt uint64
	var bytes int64
	if s := c.store; s != nil {
		hits, misses, puts, corrupt, bytes = s.Hits, s.Misses, s.Puts, s.Corrupt, s.Bytes
	}
	add("castore.hit_ratio", "ratio", ratio(float64(hits), float64(hits+misses)), int(hits+misses))
	add("castore.puts", "count", float64(puts), 1)
	add("castore.bytes", "B", float64(bytes), 1)
	add("castore.corrupt", "count", float64(corrupt), 1)

	for _, verb := range []string{"LOAD", "RUN", "MEASURE", "STOP"} {
		var mean float64
		var calls int64
		if c.transport != nil {
			cs := c.transport.Commands[verb]
			mean, calls = float64(cs.Avg())/1e3, cs.Calls
		}
		add("lab."+strings.ToLower(verb)+"_us_mean", "us", mean, int(calls))
	}
	var retries, reconnects int64
	if c.transport != nil {
		for _, cs := range c.transport.Commands {
			retries += cs.Retries
		}
		reconnects = c.transport.Reconnects
	}
	add("lab.retries", "count", float64(retries), 1)
	add("lab.reconnects", "count", float64(reconnects), 1)

	addf("fleet.measure_batch_ms_p50", "ms", func() (float64, int) { return spanMs("fleet.measure_batch") })

	add("trace.overhead_pct", "%", 100*ratio(float64(tp.wall-plain.wall), float64(plain.wall)), 2)
	return res
}
