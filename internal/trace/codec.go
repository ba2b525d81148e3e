package trace

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// The CSV codec reads and writes trace sets in an FTA-like layout:
//
//	# horizon <seconds>
//	host,start,duration
//	host-0,1234.5,60
//	...
//
// One row per interruption event; hosts with no events still appear
// once with empty start/duration so the host population is preserved.

const headerRow = "host,start,duration"

// WriteCSV serializes the set.
func WriteCSV(w io.Writer, s *Set) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("trace: write: %w", err)
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# horizon %s\n", strconv.FormatFloat(s.Horizon, 'g', -1, 64)); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	if _, err := fmt.Fprintln(bw, headerRow); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	cw := csv.NewWriter(bw)
	for i := range s.Traces {
		tr := &s.Traces[i]
		if len(tr.Events) == 0 {
			if err := cw.Write([]string{tr.Host, "", ""}); err != nil {
				return fmt.Errorf("trace: write host %s: %w", tr.Host, err)
			}
			continue
		}
		for _, e := range tr.Events {
			rec := []string{
				tr.Host,
				strconv.FormatFloat(e.Start, 'g', -1, 64),
				strconv.FormatFloat(e.Duration, 'g', -1, 64),
			}
			if err := cw.Write(rec); err != nil {
				return fmt.Errorf("trace: write host %s: %w", tr.Host, err)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return bw.Flush()
}

// ReadCSV parses a trace set previously written by WriteCSV (or an
// FTA export converted to the same columns). Host order follows first
// appearance; events are sorted per host.
func ReadCSV(r io.Reader) (*Set, error) {
	br := bufio.NewReader(r)
	// Header comment with the horizon.
	first, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	var horizon float64
	if _, err := fmt.Sscanf(first, "# horizon %g", &horizon); err != nil {
		return nil, fmt.Errorf("trace: malformed horizon header %q: %w", first, err)
	}

	cr := csv.NewReader(br)
	cr.FieldsPerRecord = 3
	byHost := make(map[string]*Trace)
	var order []string
	lineNo := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		lineNo++
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		if lineNo == 2 && rec[0] == "host" {
			continue // column header
		}
		host := rec[0]
		tr, ok := byHost[host]
		if !ok {
			tr = &Trace{Host: host, Horizon: horizon}
			byHost[host] = tr
			order = append(order, host)
		}
		if rec[1] == "" && rec[2] == "" {
			continue // host marker with no events
		}
		start, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad start %q: %w", lineNo, rec[1], err)
		}
		dur, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad duration %q: %w", lineNo, rec[2], err)
		}
		tr.Events = append(tr.Events, Event{Start: start, Duration: dur})
	}

	set := &Set{Horizon: horizon, Traces: make([]Trace, 0, len(order))}
	for _, h := range order {
		tr := byHost[h]
		tr.Sort()
		set.Traces = append(set.Traces, *tr)
	}
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return set, nil
}
