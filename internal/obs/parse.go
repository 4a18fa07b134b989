package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ParsePrometheus reads a Prometheus text exposition (the /metrics output)
// into a flat sample map keyed by the full sample name including labels
// (e.g. `msc_round_wall_seconds_bucket{le="+Inf"}`). Comment and blank
// lines are skipped; a malformed sample line is an error. The sweep
// harvester uses this to fold a child's /metrics dump into its Result.
func ParsePrometheus(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value is the field after the last space; the name (with any
		// label set) is everything before it. Label values never contain
		// spaces in our exposition.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("obs: metrics line %d: no value: %q", lineNo, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: metrics line %d: bad value: %v", lineNo, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// MetricNames extracts the sorted set of base metric names from a parsed
// sample map: label sets and the histogram _bucket/_sum/_count suffixes
// are stripped, so the result lists the registered metric names — the
// form the committed golden list (docs/metrics.golden) records.
func MetricNames(samples map[string]float64) []string {
	set := make(map[string]struct{})
	for name := range samples {
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) {
				name = strings.TrimSuffix(name, suffix)
				break
			}
		}
		set[name] = struct{}{}
	}
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
