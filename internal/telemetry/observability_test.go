package telemetry

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// chunkWriter records every Write call as its own chunk, so tests can
// assert what reached the writer in a single syscall-sized unit.
type chunkWriter struct {
	mu     sync.Mutex
	chunks [][]byte
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.chunks = append(w.chunks, append([]byte(nil), p...))
	w.mu.Unlock()
	return len(p), nil
}

// TestEventLogConcurrentSeqAndAtomicity hammers one collector from
// parallel goroutines — the shape of several engines (e.g. the
// experiment harness's) sharing one collector — and checks the event
// log's contract:
// each event reaches the writer as exactly one complete line, and seq
// values are gap-free and duplicate-free.
func TestEventLogConcurrentSeqAndAtomicity(t *testing.T) {
	w := &chunkWriter{}
	col := NewWithEvents(w)

	const events = 5000
	testing.Benchmark(func(b *testing.B) {
		var next int
		var mu sync.Mutex
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= events {
					continue
				}
				col.Emit("window_flush", map[string]any{
					"node": fmt.Sprintf("node-%d", i%7), "window": i,
				})
			}
		})
		// Top up to exactly `events` in case b.N fell short.
		for next < events {
			col.Emit("window_flush", map[string]any{"node": "tail", "window": next})
			next++
		}
	})
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}

	seen := make(map[int64]bool, events)
	var max int64
	for i, chunk := range w.chunks {
		if len(chunk) == 0 || chunk[len(chunk)-1] != '\n' {
			t.Fatalf("chunk %d does not end in newline: %q", i, chunk)
		}
		if n := strings.Count(string(chunk), "\n"); n != 1 {
			t.Fatalf("chunk %d holds %d lines, want 1 (interleaved write): %q", i, n, chunk)
		}
		var ev struct {
			Seq   int64  `json:"seq"`
			Event string `json:"event"`
		}
		if err := json.Unmarshal(chunk, &ev); err != nil {
			t.Fatalf("chunk %d is not one JSON object: %v: %q", i, err, chunk)
		}
		if ev.Seq <= 0 {
			t.Fatalf("chunk %d has seq %d, want >= 1", i, ev.Seq)
		}
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
		if ev.Seq > max {
			max = ev.Seq
		}
	}
	if len(seen) < events {
		t.Fatalf("recorded %d events, want >= %d", len(seen), events)
	}
	if max != int64(len(seen)) {
		t.Errorf("seq values not contiguous: max %d over %d events", max, len(seen))
	}
	for s := int64(1); s <= max; s++ {
		if !seen[s] {
			t.Fatalf("seq %d missing from 1..%d", s, max)
		}
	}
}

// parsePromLine splits `name{k="v",...} value` into name, labels and the
// value text, undoing the exposition-format label escaping. Returns
// ok=false for comments and blank lines.
func parsePromLine(t *testing.T, line string) (name string, labels map[string]string, value string, ok bool) {
	t.Helper()
	if line == "" || strings.HasPrefix(line, "#") {
		return "", nil, "", false
	}
	labels = map[string]string{}
	brace := strings.IndexByte(line, '{')
	if brace < 0 {
		sp := strings.IndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed line %q", line)
		}
		return line[:sp], labels, line[sp+1:], true
	}
	name = line[:brace]
	rest := line[brace+1:]
	for {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
			t.Fatalf("malformed labels in %q", line)
		}
		key := rest[:eq]
		rest = rest[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' {
				i++
				switch rest[i] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					t.Fatalf("unknown escape \\%c in %q", rest[i], line)
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		labels[key] = val.String()
		rest = rest[i+1:]
		if strings.HasPrefix(rest, ",") {
			rest = rest[1:]
			continue
		}
		if strings.HasPrefix(rest, "} ") {
			return name, labels, rest[2:], true
		}
		t.Fatalf("malformed label terminator in %q", line)
	}
}

// TestPrometheusLabelEscapingRoundTrip registers metrics whose label
// values need every escape the exposition format defines, renders the
// /metrics text, and parses it back to the original strings.
func TestPrometheusLabelEscapingRoundTrip(t *testing.T) {
	nasty := []string{
		`plain`,
		`has "quotes" inside`,
		`back\slash and trailing \`,
		"multi\nline\nvalue",
		`all three: "\` + "\n" + `"`,
	}
	col := New()
	vec := col.Registry().CounterVec("escape_test_total", "label escaping round trip", "node")
	for i, v := range nasty {
		vec.With(v).Add(int64(i + 1))
	}

	var sb strings.Builder
	if err := col.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}

	got := map[string]string{}
	for _, line := range strings.Split(sb.String(), "\n") {
		name, labels, value, ok := parsePromLine(t, line)
		if !ok || name != "escape_test_total" {
			continue
		}
		got[labels["node"]] = value
	}
	for i, v := range nasty {
		val, ok := got[v]
		if !ok {
			t.Errorf("label value %q did not round-trip (parsed: %v)", v, got)
			continue
		}
		if want := fmt.Sprint(i + 1); val != want {
			t.Errorf("label %q: value %s, want %s", v, val, want)
		}
	}
	if len(got) != len(nasty) {
		t.Errorf("parsed %d children, want %d", len(got), len(nasty))
	}

	// The full exposition output must also stay line-parseable: every
	// non-comment line is name[{labels}] value.
	for _, line := range strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n") {
		parsePromLine(t, line) // fatals on malformed lines
	}
}
