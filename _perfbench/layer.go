package main

// selfTimeNote qualifies every traced run's layer split.
const selfTimeNote = "spans wrap calls into each layer's public functions from the benchmark's own code; " +
	"until spans exist inside the program, a layer's self time includes whatever it calls internally " +
	"(core.PeakCDF and core.Optimize include their own scans, link.TrialKit.ForTrial its relock and peak scan, runspec the whole experiment)"

// layerDefs lists every per-layer metric a --trace 1 run emits, in report
// order. Every workload emits all of them; a layer a workload does not
// exercise reads 0.
func layerDefs() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".calls", "count"}, metricDef{l + ".self_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"phasor.samples", "count"},
		metricDef{"phasor.ns_per_sample", "ns"},
		metricDef{"core.relock_ratio", "1"},
		metricDef{"reader.decodes", "count"},
		metricDef{"reader.decode_ok_ratio", "1"},
		metricDef{"session.slots", "count"},
		metricDef{"session.commands", "count"},
		metricDef{"session.useful_slot_ratio", "1"},
		metricDef{"session.ns_per_slot", "ns"},
		metricDef{"engine.trials", "count"},
		metricDef{"engine.render_ms", "ms"},
		metricDef{"engine.journal_entries", "count"},
		metricDef{"runspec.key_us", "us"},
		metricDef{"service.handler_us", "us"},
		metricDef{"service.transport_us", "us"},
		metricDef{"service.queue_wait_ms", "ms"},
		metricDef{"service.polls_per_cold_job", "count"},
		metricDef{"service.cache_hit_ratio", "1"},
		metricDef{"trace.run_ms", "ms"},
		metricDef{"trace.untraced_run_ms", "ms"},
		metricDef{"trace.overhead_pct", "%"},
	)
	for _, id := range allIDs() {
		defs = append(defs, metricDef{"ivnsim." + id + "_ms", "ms"})
	}
	return defs
}

// layerMetrics turns span aggregates and counters, summed over units of
// work (repetitions or jobs), into per-unit per-layer metrics. Metrics a
// caller measures elsewhere start at 0 and are filled with set.
func layerMetrics(byLayer map[string]layerStat, byName map[string]int64, units float64, c map[string]int64) []metric {
	ms := make([]metric, 0, 96)
	for _, d := range layerDefs() {
		ms = append(ms, metric{name: d.name, unit: d.unit})
	}
	for _, l := range layers {
		st := byLayer[l]
		set(ms, l+".calls", float64(st.calls)/units)
		set(ms, l+".self_ms", float64(st.selfNs)/1e6/units)
	}
	// Counters are per repetition already (c is one repetition's).
	set(ms, "phasor.samples", float64(c["phasor.samples"]))
	if s := float64(c["phasor.samples"]) * units; s > 0 {
		set(ms, "phasor.ns_per_sample", float64(byLayer["phasor"].selfNs)/s)
	}
	if b, r := c["core.builds"], c["core.relocks"]; b+r > 0 {
		set(ms, "core.relock_ratio", float64(r)/float64(b+r))
	}
	set(ms, "reader.decodes", float64(c["reader.decodes"]))
	if d := c["reader.decodes"]; d > 0 {
		set(ms, "reader.decode_ok_ratio", float64(c["reader.decode_ok"])/float64(d))
	}
	set(ms, "session.slots", float64(c["session.slots"]))
	set(ms, "session.commands", float64(c["session.commands"]))
	if s := c["session.slots"]; s > 0 {
		set(ms, "session.useful_slot_ratio", float64(c["session.useful_slots"])/float64(s))
		set(ms, "session.ns_per_slot", float64(byName["session.InventoryController.RunRound"])/(float64(s)*units))
	}
	return ms
}

// set assigns a metric's value by name; an unknown name is a bug.
func set(ms []metric, name string, v float64) {
	for i := range ms {
		if ms[i].name == name {
			ms[i].value = v
			return
		}
	}
	panic("perfbench: unknown metric " + name)
}
