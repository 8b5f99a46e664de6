package experiments

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
)

func sampleTable() *Table {
	return &Table{
		ID: "t", Title: "Sample",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "x,y"}, {"2", "z"}},
		Notes:  []string{"a note"},
	}
}

func TestWriteCSVRoundTripsThroughParser(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTable().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(&buf)
	r.FieldsPerRecord = -1
	records, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 4 { // header + 2 rows + 1 note
		t.Fatalf("records = %d", len(records))
	}
	if records[1][1] != "x,y" {
		t.Fatalf("comma-containing cell mangled: %q", records[1][1])
	}
	if !strings.HasPrefix(records[3][0], "# ") {
		t.Fatalf("note row missing comment prefix: %q", records[3][0])
	}
}

func TestJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	orig := sampleTable()
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back tableJSON
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != orig.ID || back.Title != orig.Title {
		t.Fatal("metadata lost")
	}
	if len(back.Rows) != len(orig.Rows) || back.Rows[0][1] != "x,y" {
		t.Fatal("rows lost")
	}
	if len(back.Notes) != 1 || back.Notes[0] != "a note" {
		t.Fatal("notes lost")
	}
}

func TestJSONOfRealExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure12().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back tableJSON
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != "fig12" || len(back.Rows) != 8 {
		t.Fatalf("fig12 round trip wrong: %s %d", back.ID, len(back.Rows))
	}
}
