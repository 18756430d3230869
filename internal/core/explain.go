package core

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"cpsmon/internal/speclang"
	"cpsmon/internal/trace"
)

// Explanation is the context around one violation: the values of every
// signal the rule references over a window spanning the violation plus
// a margin on both sides. The paper notes that deciding "whether a
// violation was real or not ... may be non-trivial on some systems,
// especially if a part of the reason for the use of a monitor is to
// help developers understand the test traces" — this is the monitor
// handing the developer that context.
type Explanation struct {
	// Rule is the violated rule.
	Rule string
	// Violation is the explained interval.
	Violation speclang.Violation
	// Class is the triage classification.
	Class Class
	// From and To delimit the context window.
	From, To time.Duration
	// Signals holds the referenced signals' context, in sorted order.
	Signals []SignalContext
}

// SignalContext is one signal's behaviour over the context window.
type SignalContext struct {
	// Name is the signal name.
	Name string
	// Min, Max and the value endpoints summarize the window (finite
	// samples only).
	Min, Max, First, Last float64
	// NonFinite counts NaN/Inf samples in the window.
	NonFinite int
	// Spark is a fixed-width character strip of the signal over the
	// window: ▁..█ scaled between Min and Max, '!' where the sample is
	// not finite, '·' where no sample exists yet. The violation's span
	// within the window is marked on the Marker line.
	Spark string
	// Marker aligns with Spark: '^' under the violating span.
	Marker string
}

// sparkWidth is the character width of the context strips.
const sparkWidth = 64

var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Explain extracts the context of the violIdx-th violation of the
// named rule from the trace. margin is added before and after the
// violation (a margin of zero still shows the violation span itself).
func (m *Monitor) Explain(tr *trace.Trace, rep *Report, rule string, violIdx int, margin time.Duration) (*Explanation, error) {
	rr, ok := rep.Rule(rule)
	if !ok {
		return nil, fmt.Errorf("core: explain: unknown rule %q", rule)
	}
	if violIdx < 0 || violIdx >= len(rr.Result.Violations) {
		return nil, fmt.Errorf("core: explain: rule %s has %d violations, index %d out of range",
			rule, len(rr.Result.Violations), violIdx)
	}
	v := rr.Result.Violations[violIdx]
	compiled, ok := m.rules.Rule(rule)
	if !ok {
		return nil, fmt.Errorf("core: explain: rule %q not in the compiled set", rule)
	}
	names := compiled.Signals()

	from := v.Start - margin
	if from < 0 {
		from = 0
	}
	to := v.End + margin
	if end := tr.Duration() + m.period; to > end {
		to = end
	}
	if to <= from {
		to = from + m.period
	}

	ex := &Explanation{
		Rule:      rule,
		Violation: v,
		Class:     rr.Classes[violIdx],
		From:      from,
		To:        to,
	}
	for _, name := range names {
		s, ok := tr.Series(name)
		if !ok {
			continue
		}
		ex.Signals = append(ex.Signals, signalContext(s, from, to, v))
	}
	return ex, nil
}

// signalContext samples the series over [from, to) at sparkWidth points.
func signalContext(s *trace.Series, from, to time.Duration, v speclang.Violation) SignalContext {
	ctx := SignalContext{Name: s.Name, Min: math.Inf(1), Max: math.Inf(-1)}
	span := to - from
	samples := make([]float64, sparkWidth)
	defined := make([]bool, sparkWidth)
	firstSet := false
	for i := 0; i < sparkWidth; i++ {
		at := from + time.Duration(int64(span)*int64(i)/int64(sparkWidth))
		val, ok := s.At(at)
		if !ok {
			continue
		}
		defined[i] = true
		samples[i] = val
		if math.IsNaN(val) || math.IsInf(val, 0) {
			ctx.NonFinite++
			continue
		}
		if !firstSet {
			ctx.First = val
			firstSet = true
		}
		ctx.Last = val
		if val < ctx.Min {
			ctx.Min = val
		}
		if val > ctx.Max {
			ctx.Max = val
		}
	}
	if ctx.Min > ctx.Max { // no finite samples
		ctx.Min, ctx.Max = 0, 0
	}
	var spark, marker strings.Builder
	for i := 0; i < sparkWidth; i++ {
		at := from + time.Duration(int64(span)*int64(i)/int64(sparkWidth))
		switch {
		case !defined[i]:
			spark.WriteRune('·')
		case math.IsNaN(samples[i]) || math.IsInf(samples[i], 0):
			spark.WriteRune('!')
		default:
			level := 0
			if ctx.Max > ctx.Min {
				level = int((samples[i] - ctx.Min) / (ctx.Max - ctx.Min) * float64(len(sparkLevels)-1))
				if level < 0 {
					level = 0
				}
				if level >= len(sparkLevels) {
					level = len(sparkLevels) - 1
				}
			}
			spark.WriteRune(sparkLevels[level])
		}
		if at >= v.Start && at < v.End {
			marker.WriteByte('^')
		} else {
			marker.WriteByte(' ')
		}
	}
	ctx.Spark = spark.String()
	ctx.Marker = marker.String()
	return ctx
}

// Render writes the explanation as a compact report.
func (ex *Explanation) Render(w io.Writer) error {
	fmt.Fprintf(w, "%s violation [%s] %v..%v (%v): %s\n",
		ex.Rule, ex.Class, ex.Violation.Start, ex.Violation.End, ex.Violation.Duration(), ex.Violation.Msg)
	fmt.Fprintf(w, "context %v..%v\n", ex.From, ex.To)
	for _, sc := range ex.Signals {
		fmt.Fprintf(w, "  %-16s %s  [%.4g .. %.4g]", sc.Name, sc.Spark, sc.Min, sc.Max)
		if sc.NonFinite > 0 {
			fmt.Fprintf(w, "  (%d non-finite)", sc.NonFinite)
		}
		fmt.Fprintln(w)
		if _, err := fmt.Fprintf(w, "  %-16s %s\n", "", sc.Marker); err != nil {
			return err
		}
	}
	return nil
}
