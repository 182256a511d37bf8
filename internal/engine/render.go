package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Renderer turns a typed Result into one output format: RenderText,
// RenderCSV or RenderJSON, or any function of this shape.
type Renderer func(r *Result, w io.Writer) error

// RenderText writes an aligned text table: the historical human-readable
// format, derived from the typed cells.
func RenderText(r *Result, w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	header := r.HeaderLabels()
	rows := r.TextRows()
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) error {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					sb.WriteByte(' ')
				}
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
		return err
	}
	if len(header) > 0 {
		if err := writeRow(header); err != nil {
			return err
		}
		var sb strings.Builder
		for i, width := range widths {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(strings.Repeat("-", width))
		}
		if _, err := fmt.Fprintln(w, sb.String()); err != nil {
			return err
		}
	}
	for _, row := range rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// RenderCSV writes the result as CSV (header + rows; notes as comments).
func RenderCSV(r *Result, w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	writeRow := func(cells []string) error {
		out := make([]string, len(cells))
		for i, c := range cells {
			out[i] = esc(c)
		}
		_, err := fmt.Fprintln(w, strings.Join(out, ","))
		return err
	}
	if len(r.Columns) > 0 {
		if err := writeRow(r.HeaderLabels()); err != nil {
			return err
		}
	}
	for _, row := range r.TextRows() {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// RenderJSON writes the result as indented JSON. Cells keep their numeric
// payloads (values, not formatted strings), so the output feeds
// cross-run regression diffing and downstream tooling directly;
// Result round-trips through this encoding losslessly.
func RenderJSON(r *Result, w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
