package mobility

import (
	"bufio"
	"fmt"
	"io"
)

// Trace files are plain CSV, one position report per line:
//
//	# step_seconds=30
//	t,node,group,x,y
//	0,0,0,1023.5,2311.0
//	...
//
// matching the periodic location updates of the ARL traces.

// WriteCSV encodes the trace.
func (tr *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# step_seconds=%g\n", tr.StepSeconds); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(bw, "t,node,group,x,y"); err != nil {
		return err
	}
	for t, snapshot := range tr.Positions {
		for v, p := range snapshot {
			if _, err := fmt.Fprintf(bw, "%d,%d,%d,%.3f,%.3f\n", t, v, tr.GroupOf[v], p.X, p.Y); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
