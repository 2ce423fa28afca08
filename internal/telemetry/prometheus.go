package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// promName sanitizes an arbitrary registry name into a Prometheus metric
// name component: [a-zA-Z0-9_], everything else collapsed to '_'.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// promLabel escapes a Prometheus label value.
func promLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// WritePrometheus renders the collector's aggregates and metrics registry in
// the Prometheus text exposition format (version 0.0.4):
//
//   - biglittle_events_total{kind} and biglittle_event_reasons_total{kind,reason}
//   - biglittle_freq_transitions_total{cluster,mhz}
//   - biglittle_events_dropped_total (ring-buffer evictions; aggregates exact)
//   - each registered Counter as biglittle_<name>_total
//   - each registered Gauge as biglittle_<name>
//   - each registered Histogram as a summary: biglittle_<name>{quantile=...}
//     at 0.5/0.9/0.95/0.99 (exact nearest-rank, not estimates — the
//     collector keeps every observation) plus _sum and _count.
//
// Safe on a nil collector (writes nothing). blserve serves this on /metrics
// and `blsim -prom` writes it to a file or stdout. The registry section (named
// counters, gauges, histograms) is safe to export while parallel lab
// workers update counters and gauges; the event aggregates assume the
// single-threaded engine has quiesced or is serialized by the caller.
func (c *Collector) WritePrometheus(w io.Writer) error {
	if c == nil {
		return nil
	}
	var b strings.Builder

	b.WriteString("# HELP biglittle_events_total Telemetry events emitted, by kind.\n")
	b.WriteString("# TYPE biglittle_events_total counter\n")
	for _, k := range Kinds() {
		fmt.Fprintf(&b, "biglittle_events_total{kind=%q} %d\n", k.String(), c.counts[k])
	}

	if len(c.reasons) > 0 {
		b.WriteString("# HELP biglittle_event_reasons_total Telemetry events by kind and reason.\n")
		b.WriteString("# TYPE biglittle_event_reasons_total counter\n")
		keys := make([]reasonKey, 0, len(c.reasons))
		for rk := range c.reasons {
			keys = append(keys, rk)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].Kind != keys[j].Kind {
				return keys[i].Kind < keys[j].Kind
			}
			return keys[i].Reason < keys[j].Reason
		})
		for _, rk := range keys {
			fmt.Fprintf(&b, "biglittle_event_reasons_total{kind=%q,reason=%q} %d\n",
				rk.Kind.String(), promLabel(rk.Reason), c.reasons[rk])
		}
	}

	if len(c.freq) > 0 {
		b.WriteString("# HELP biglittle_freq_transitions_total Cluster frequency transitions, by target MHz.\n")
		b.WriteString("# TYPE biglittle_freq_transitions_total counter\n")
		keys := make([]freqKey, 0, len(c.freq))
		for fk := range c.freq {
			keys = append(keys, fk)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].Cluster != keys[j].Cluster {
				return keys[i].Cluster < keys[j].Cluster
			}
			return keys[i].MHz < keys[j].MHz
		})
		for _, fk := range keys {
			fmt.Fprintf(&b, "biglittle_freq_transitions_total{cluster=\"%d\",mhz=\"%d\"} %d\n",
				fk.Cluster, fk.MHz, c.freq[fk])
		}
	}

	b.WriteString("# HELP biglittle_events_dropped_total Events evicted from the bounded buffer (aggregates stay exact).\n")
	b.WriteString("# TYPE biglittle_events_dropped_total counter\n")
	fmt.Fprintf(&b, "biglittle_events_dropped_total %d\n", c.dropped)

	c.regMu.RLock()
	names := make([]string, 0, len(c.counters))
	for name := range c.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mn := "biglittle_" + promName(name) + "_total"
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", mn, mn, c.counters[name].Value())
	}

	names = names[:0]
	for name, g := range c.gauges {
		if g.Defined() {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		mn := "biglittle_" + promName(name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %g\n", mn, mn, c.gauges[name].Value())
	}

	names = names[:0]
	for name := range c.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := c.hists[name]
		mn := "biglittle_" + promName(name)
		fmt.Fprintf(&b, "# TYPE %s summary\n", mn)
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
			fmt.Fprintf(&b, "%s{quantile=\"%g\"} %g\n", mn, q, h.Quantile(q))
		}
		fmt.Fprintf(&b, "%s_sum %g\n%s_count %d\n", mn, h.sum, mn, h.Count())
	}
	c.regMu.RUnlock()

	_, err := io.WriteString(w, b.String())
	return err
}
