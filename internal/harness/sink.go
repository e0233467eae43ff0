package harness

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Sink consumes records as they stream out of a run. Emit is called from
// a single goroutine, in matrix expansion order for cells followed by a
// deterministic aggregate order, so sinks need no locking.
type Sink interface {
	Emit(Record) error
	Close() error
}

// NewSink constructs a sink by format name: "table", "jsonl" or "csv".
func NewSink(format string, w io.Writer) (Sink, error) {
	switch format {
	case "table", "":
		return NewTableSink(w), nil
	case "jsonl":
		return NewJSONLSink(w), nil
	case "csv":
		return NewCSVSink(w), nil
	default:
		return nil, fmt.Errorf("harness: unknown output format %q (want table, jsonl or csv)", format)
	}
}

// --- JSONL ---

type jsonlSink struct{ enc *json.Encoder }

// NewJSONLSink emits one JSON object per line: the machine-readable
// format consumed by Diff as a baseline.
func NewJSONLSink(w io.Writer) Sink { return &jsonlSink{enc: json.NewEncoder(w)} }

func (s *jsonlSink) Emit(r Record) error { return s.enc.Encode(r) }
func (s *jsonlSink) Close() error        { return nil }

// --- CSV ---

type csvSink struct {
	w      *csv.Writer
	header bool
}

// NewCSVSink emits a flat CSV with a header row.
func NewCSVSink(w io.Writer) Sink { return &csvSink{w: csv.NewWriter(w)} }

func (s *csvSink) Emit(r Record) error {
	if !s.header {
		s.header = true
		if err := s.w.Write([]string{
			"kind", "model", "trace", "category", "scenario", "branches",
			"delta_log", "storage_bits",
			"window", "exec_delay",
			"mpki", "mppki", "mpki_sum", "mppki_sum", "mispredicts",
			"misprediction_rate",
			"sim_branches", "elapsed_sec", "branches_per_sec",
			"cells", "error", "git_sha", "git_dirty", "spec",
		}); err != nil {
			return err
		}
	}
	var sha string
	var dirty bool
	if r.Provenance != nil {
		sha, dirty = r.Provenance.GitSHA, r.Provenance.GitDirty
	}
	return s.w.Write([]string{
		r.Kind, r.Model, r.Trace, r.Category, r.Scenario,
		strconv.Itoa(r.Branches),
		strconv.Itoa(r.DeltaLog), strconv.Itoa(r.StorageBits),
		strconv.Itoa(r.Window), strconv.Itoa(r.ExecDelay),
		formatFloat(r.MPKI), formatFloat(r.MPPKI),
		formatFloat(r.MPKISum), formatFloat(r.MPPKISum),
		strconv.FormatUint(r.Mispredicts, 10),
		formatFloat(r.Misprediction),
		strconv.FormatUint(r.SimBranches, 10),
		formatFloat(r.ElapsedSec), formatFloat(r.BranchesPerSec),
		strconv.Itoa(r.Cells), r.Err,
		sha, strconv.FormatBool(dirty),
		r.Spec,
	})
}

func (s *csvSink) Close() error {
	s.w.Flush()
	return s.w.Error()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// --- human table ---

type tableSink struct {
	w         io.Writer
	lastGroup string
	err       error
}

// NewTableSink renders an aligned human-readable table, with a blank
// line and group header whenever the (model, scenario, length) group
// changes, and indented aggregate rows.
func NewTableSink(w io.Writer) Sink { return &tableSink{w: w} }

func (s *tableSink) printf(format string, args ...any) {
	if s.err == nil {
		_, s.err = fmt.Fprintf(s.w, format, args...)
	}
}

func (s *tableSink) Emit(r Record) error {
	group := fmt.Sprintf("%s scenario=%s branches=%d", r.Model, r.Scenario, r.Branches)
	if group != s.lastGroup {
		if s.lastGroup != "" {
			s.printf("\n")
		}
		s.printf("# %s\n", group)
		s.lastGroup = group
	}
	switch r.Kind {
	case KindCell, "":
		if r.Failed() {
			s.printf("%-10s FAILED: %s\n", r.Trace, r.Err)
			return s.err
		}
		s.printf("%-10s MPKI=%7.3f MPPKI=%8.2f mispredict=%5.2f%% %s\n",
			r.Trace, r.MPKI, r.MPPKI, 100*r.Misprediction, FormatBranchRate(r.BranchesPerSec))
	case KindCategory:
		s.printf("  %-8s cat  mean-MPKI=%7.3f sum-MPPKI=%8.2f (%d traces)\n",
			r.Category, r.MPKI, r.MPPKISum, r.Cells)
	case KindHard:
		s.printf("  %-8s      mean-MPKI=%7.3f sum-MPPKI=%8.2f (%d traces)\n",
			"hard-7", r.MPKI, r.MPPKISum, r.Cells)
	case KindSuite:
		s.printf("  %-8s      mean-MPKI=%7.3f sum-MPPKI=%8.2f (%d traces)\n",
			"suite", r.MPKI, r.MPPKISum, r.Cells)
	}
	return s.err
}

func (s *tableSink) Close() error { return s.err }

// --- discard ---

type discardSink struct{}

// Discard is a Sink that drops every record: callers that only want the
// Summary (e.g. the experiments package reading aggregates) run against
// it instead of inventing a throwaway sink.
var Discard Sink = discardSink{}

func (discardSink) Emit(Record) error { return nil }
func (discardSink) Close() error      { return nil }
