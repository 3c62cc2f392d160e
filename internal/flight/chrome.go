package flight

import (
	"io"
	"math"
	"strconv"
)

// WriteChrome writes the snapshot as Chrome trace-event JSON — the format
// Perfetto (ui.perfetto.dev) and chrome://tracing load directly. One track
// (tid) per recorder lane, named via thread_name metadata; spans are "X"
// complete events with microsecond ts/dur, policy decisions are "i" instants,
// and the MGPS degree plus each flow's log-likelihood trajectory are emitted
// as "C" counter tracks.
//
// The output is hand-assembled with a fixed field order per event, so the
// same snapshot always serializes to the same bytes (golden-tested in
// chrome_test.go).
func (s Snapshot) WriteChrome(w io.Writer) error {
	labels := make(map[uint64]string, len(s.Labels))
	for _, lp := range s.Labels {
		labels[lp.ID] = lp.Label
	}

	var buf []byte
	buf = append(buf, `{"displayTimeUnit":"ms","traceEvents":[`...)
	first := true
	emit := func(ev []byte) {
		if !first {
			buf = append(buf, ',', '\n')
		}
		first = false
		buf = append(buf, ev...)
	}

	var scratch []byte
	meta := func(tid int, name string) []byte {
		scratch = scratch[:0]
		scratch = append(scratch, `{"ph":"M","pid":1,"tid":`...)
		scratch = strconv.AppendInt(scratch, int64(tid), 10)
		scratch = append(scratch, `,"name":"thread_name","args":{"name":`...)
		scratch = appendJSONString(scratch, name)
		scratch = append(scratch, `}}`...)
		return scratch
	}
	emit([]byte(`{"ph":"M","pid":1,"name":"process_name","args":{"name":"cellmg"}}`))
	for i, name := range s.Lanes {
		emit(meta(i, name))
	}

	for _, ev := range s.Events {
		scratch = scratch[:0]
		scratch = appendChromeEvent(scratch, ev, labels)
		emit(scratch)
		// Derived counter tracks: the MGPS degree as a step function and the
		// per-flow log-likelihood trajectory.
		switch ev.Kind {
		case KindEval, KindSwitch:
			degree := ev.B
			if ev.Kind == KindSwitch {
				degree = ev.A
			}
			scratch = scratch[:0]
			scratch = append(scratch, `{"ph":"C","pid":1,"tid":`...)
			scratch = strconv.AppendInt(scratch, int64(ev.Lane), 10)
			scratch = append(scratch, `,"ts":`...)
			scratch = appendMicros(scratch, ev.Start)
			scratch = append(scratch, `,"name":"mgps degree","args":{"spes_per_loop":`...)
			scratch = strconv.AppendInt(scratch, degree, 10)
			scratch = append(scratch, `}}`...)
			emit(scratch)
		case KindSweep:
			scratch = scratch[:0]
			scratch = append(scratch, `{"ph":"C","pid":1,"tid":`...)
			scratch = strconv.AppendInt(scratch, int64(ev.Lane), 10)
			scratch = append(scratch, `,"ts":`...)
			scratch = appendMicros(scratch, ev.Start)
			scratch = append(scratch, `,"name":`...)
			scratch = appendJSONString(scratch, "logL "+flowName(ev.ID, labels))
			scratch = append(scratch, `,"args":{"logL":`...)
			scratch = appendFloat(scratch, math.Float64frombits(uint64(ev.B)))
			scratch = append(scratch, `}}`...)
			emit(scratch)
		}
	}
	buf = append(buf, `]}`...)
	buf = append(buf, '\n')
	_, err := w.Write(buf)
	return err
}

// appendChromeEvent serializes one recorded event with a fixed field order:
// ph, pid, tid, ts, (dur | s), name, cat, args.
func appendChromeEvent(buf []byte, ev Event, labels map[uint64]string) []byte {
	span := isSpanKind(ev.Kind)
	if span {
		buf = append(buf, `{"ph":"X","pid":1,"tid":`...)
	} else {
		buf = append(buf, `{"ph":"i","pid":1,"tid":`...)
	}
	buf = strconv.AppendInt(buf, int64(ev.Lane), 10)
	buf = append(buf, `,"ts":`...)
	buf = appendMicros(buf, ev.Start)
	if span {
		buf = append(buf, `,"dur":`...)
		buf = appendMicros(buf, ev.Dur)
	} else if ev.Kind == KindEval || ev.Kind == KindSwitch {
		buf = append(buf, `,"s":"g"`...) // global scope: policy applies to every lane
	} else {
		buf = append(buf, `,"s":"t"`...)
	}
	buf = append(buf, `,"name":`...)
	buf = appendJSONString(buf, ev.Kind.String())
	buf = append(buf, `,"cat":`...)
	buf = appendJSONString(buf, ev.Kind.String())
	buf = append(buf, `,"args":{`...)
	buf = appendChromeArgs(buf, ev, labels)
	buf = append(buf, `}}`...)
	return buf
}

// appendChromeArgs decodes the kind-specific A/B payloads into named args.
func appendChromeArgs(buf []byte, ev Event, labels map[uint64]string) []byte {
	kv := func(sep bool, key string, val int64) {
		if sep {
			buf = append(buf, ',')
		}
		buf = append(buf, '"')
		buf = append(buf, key...)
		buf = append(buf, `":`...)
		buf = strconv.AppendInt(buf, val, 10)
	}
	switch ev.Kind {
	case KindQueue, KindKernel:
		kv(false, "submitter", ev.A)
		kv(true, "workers", ev.B)
	case KindLoop:
		kv(false, "n", ev.A)
		kv(true, "workers", ev.B>>32)
		kv(true, "grain", ev.B&0xffffffff)
	case KindSweep:
		kv(false, "evaluated", ev.A&0xffffffff)
		kv(true, "accepted", ev.A>>32)
		buf = append(buf, `,"logL":`...)
		buf = appendFloat(buf, math.Float64frombits(uint64(ev.B)))
	case KindEval:
		kv(false, "u", ev.A)
		kv(true, "spes_per_loop", ev.B)
	case KindSwitch:
		kv(false, "spes_per_loop", ev.A)
		if ev.B != 0 {
			buf = append(buf, `,"llp":true`...)
		} else {
			buf = append(buf, `,"llp":false`...)
		}
	case KindJobQueued:
		kv(false, "priority", ev.A)
	case KindJobRun:
		kv(false, "tasks", ev.A)
		buf = append(buf, `,"outcome":`...)
		buf = appendJSONString(buf, outcomeName(ev.B))
	default:
		kv(false, "a", ev.A)
		kv(true, "b", ev.B)
	}
	if ev.ID != 0 {
		buf = append(buf, `,"flow":`...)
		buf = appendJSONString(buf, flowName(ev.ID, labels))
	}
	return buf
}

func isSpanKind(k Kind) bool {
	switch k {
	case KindQueue, KindKernel, KindLoop, KindJobQueued, KindJobRun:
		return true
	}
	return false
}

func outcomeName(b int64) string {
	switch b {
	case 0:
		return "done"
	case 1:
		return "failed"
	case 2:
		return "cancelled"
	}
	return "unknown"
}

func flowName(id uint64, labels map[uint64]string) string {
	if name, ok := labels[id]; ok {
		return name
	}
	return "flow " + strconv.FormatUint(id, 10)
}

// appendMicros formats nanoseconds as microseconds with fixed millisecond
// precision (three decimals), the unit the trace-event format expects.
func appendMicros(buf []byte, ns int64) []byte {
	return strconv.AppendFloat(buf, float64(ns)/1e3, 'f', 3, 64)
}

// appendFloat formats a float payload; NaN and infinities are not valid JSON
// numbers, so they serialize as null.
func appendFloat(buf []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(buf, `null`...)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// appendJSONString appends s as a JSON string literal, escaping quotes,
// backslashes, and control characters (tenant-supplied labels pass through
// here, so the escaping must be JSON-correct, not Go-correct).
func appendJSONString(buf []byte, s string) []byte {
	const hex = "0123456789abcdef"
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		case c >= 0x20:
			buf = append(buf, c)
		case c == '\n':
			buf = append(buf, '\\', 'n')
		case c == '\t':
			buf = append(buf, '\\', 't')
		case c == '\r':
			buf = append(buf, '\\', 'r')
		default:
			buf = append(buf, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
	}
	return append(buf, '"')
}
