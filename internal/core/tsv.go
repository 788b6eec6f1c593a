package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Format selects a figure table's wire encoding — the two content types
// the CLIs' -format flags and the rrserved daemon share.
type Format string

const (
	// FormatTSV is the tab-separated encoding WriteTSV produces.
	FormatTSV Format = "tsv"
	// FormatJSON is the JSON object encoding WriteJSON produces.
	FormatJSON Format = "json"
)

// ParseFormat parses a -format flag or ?format= query value.
func ParseFormat(s string) (Format, error) {
	switch Format(strings.ToLower(strings.TrimSpace(s))) {
	case "", FormatTSV:
		return FormatTSV, nil
	case FormatJSON:
		return FormatJSON, nil
	}
	return "", fmt.Errorf("core: unknown format %q (want tsv or json)", s)
}

// ContentType returns the HTTP content type of the encoding.
func (f Format) ContentType() string {
	if f == FormatJSON {
		return "application/json; charset=utf-8"
	}
	return "text/tab-separated-values; charset=utf-8"
}

// Ext returns the conventional file extension, dot included.
func (f Format) Ext() string { return "." + string(f) }

// Write encodes the table in the given format.
func (t *Table) Write(w io.Writer, f Format) error {
	if f == FormatJSON {
		return t.WriteJSON(w)
	}
	return t.WriteTSV(w)
}

// WriteTSV writes the table as tab-separated values: a comment header with
// the title and notes, the column header, then one line per row. Floats are
// printed with %g so the output is both compact and lossless enough for
// plotting.
func (t *Table) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s: %s\n", t.Figure, t.Title)
	if len(t.Notes) > 0 {
		keys := make([]string, 0, len(t.Notes))
		for k := range t.Notes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(bw, "# %s = %g\n", k, t.Notes[k])
		}
	}
	for i, c := range t.Columns {
		if i > 0 {
			bw.WriteByte('\t')
		}
		bw.WriteString(c)
	}
	bw.WriteByte('\n')
	for _, row := range t.Rows {
		for i, v := range row {
			if i > 0 {
				bw.WriteByte('\t')
			}
			bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteJSON writes the table as one JSON object mirroring the TSV layout:
// figure id, title, sorted notes, column names, and the rows as arrays.
// Table cells can legitimately be NaN (fig2c pads ragged rows, fig9 marks
// undefined ratios), which encoding/json refuses to emit — those cells
// become null, the usual JSON convention for "no value". The encoding is
// deterministic (sorted note keys, fixed field order), so equal tables
// produce equal bytes — the property the serving cache keys rely on.
func (t *Table) WriteJSON(w io.Writer) error {
	type jsonTable struct {
		Figure  string         `json:"figure"`
		Title   string         `json:"title"`
		Notes   map[string]any `json:"notes,omitempty"`
		Columns []string       `json:"columns"`
		Rows    [][]any        `json:"rows"`
	}
	jt := jsonTable{Figure: t.Figure, Title: t.Title, Columns: t.Columns, Rows: make([][]any, len(t.Rows))}
	if len(t.Notes) > 0 {
		jt.Notes = make(map[string]any, len(t.Notes))
		for k, v := range t.Notes {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				jt.Notes[k] = nil
			} else {
				jt.Notes[k] = v
			}
		}
	}
	for i, row := range t.Rows {
		out := make([]any, len(row))
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				out[j] = nil
			} else {
				out[j] = v
			}
		}
		jt.Rows[i] = out
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&jt)
}
