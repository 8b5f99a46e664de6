package experiments

import (
	"encoding/csv"
	"encoding/json"
	"io"
)

// WriteCSV emits the table as CSV (header row first). Notes are appended
// as comment-style rows prefixed with "#" in the first column, so the file
// round-trips through standard CSV tooling while preserving the
// paper-comparison annotations.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	for _, note := range t.Notes {
		if err := cw.Write([]string{"# " + note}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// tableJSON is the stable JSON wire form of a Table.
type tableJSON struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// WriteJSON emits the table as indented JSON.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tableJSON{
		ID: t.ID, Title: t.Title, Header: t.Header, Rows: t.Rows, Notes: t.Notes,
	})
}
