package engine

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func demoResult() *Result {
	r := NewResult("demo", "A demo table", Col("name", ""), Col("depth", "cm"), Col("hits", ""))
	r.AddRow(Str("alpha"), Number("%.1f", 12.25), Counts(3, 6))
	r.AddRow(Str("beta, or so"), Number("%.1f", 5), Counts(6, 6))
	r.AddNote("a note with %d parts", 2)
	return r
}

func TestRenderText(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderText(demoResult(), &buf); err != nil {
		t.Fatal(err)
	}
	want := "== demo: A demo table ==\n" +
		"name         depth (cm)  hits\n" +
		"-----------  ----------  ----\n" +
		"alpha        12.2        3/6\n" +
		"beta, or so  5.0         6/6\n" +
		"note: a note with 2 parts\n"
	if buf.String() != want {
		t.Fatalf("text render:\n%q\nwant:\n%q", buf.String(), want)
	}
}

func TestRenderCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderCSV(demoResult(), &buf); err != nil {
		t.Fatal(err)
	}
	want := "name,depth (cm),hits\n" +
		"alpha,12.2,3/6\n" +
		"\"beta, or so\",5.0,6/6\n" +
		"# a note with 2 parts\n"
	if buf.String() != want {
		t.Fatalf("csv render:\n%q\nwant:\n%q", buf.String(), want)
	}
	// A quote inside a quoted field is doubled.
	q := NewResult("q", "", Col("a", ""), Col("b", ""))
	q.AddRow(Str(`va,l"ue`), Int(2))
	buf.Reset()
	if err := RenderCSV(q, &buf); err != nil {
		t.Fatal(err)
	}
	if want := "a,b\n\"va,l\"\"ue\",2\n"; buf.String() != want {
		t.Fatalf("csv render:\n%q\nwant:\n%q", buf.String(), want)
	}
}

func TestRenderJSONRoundTrip(t *testing.T) {
	r := demoResult()
	r.AddRow(Str("extras"), Number("%.1f", 1), Tuple("%d/%d (%.1f%%)", 1, 2, 50.0))
	var buf bytes.Buffer
	if err := RenderJSON(r, &buf); err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*r, back) {
		t.Fatalf("JSON round trip changed the result:\nin:  %+v\nout: %+v", *r, back)
	}
	// The payload must be numeric, not stringly: values arrays, not
	// pre-formatted cells.
	if !strings.Contains(buf.String(), `"values"`) {
		t.Fatalf("JSON lacks numeric values:\n%s", buf.String())
	}
}
