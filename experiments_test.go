package repro

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

// quotedTable is one EXPERIMENTS.md table that transcribes a cmd/figures
// table. The document prints it transposed: each of its rows is one column
// of the figures table (the first row the key column), and its i-th cell
// after the label is that column's value in the figures table's i-th row.
type quotedTable struct {
	name  string      // subtest name
	intro string      // the line just above the table in EXPERIMENTS.md
	title string      // the BENCH_FIGURES.json table it quotes
	rows  [][2]string // per document row, in order: its label and the figures column it transcribes
}

// quotedTables lists the tables TestExperimentsMatchFigures holds to
// BENCH_FIGURES.json; a table quoted from another experiment is one more
// entry.
var quotedTables = []quotedTable{
	{
		name:  "E5/k-sweep",
		intro: "|m_g| grows with lg k (n = 6, s = 6, dense):",
		title: "Theorem 12 — |m_g| grows with lg k (n=6, s=6)",
		rows:  [][2]string{{"k", "k"}, {"measured bits", "|m_g| bits"}, {"bound n'·⌈lg k⌉", "bound bits"}},
	},
	{
		name:  "E5/n-sweep",
		intro: "|m_g| grows with n' = min{n−2, s−1} (k = 64, s = 64):",
		title: "Theorem 12 — |m_g| grows with n' = min{n−2, s−1} (k=64)",
		rows:  [][2]string{{"n", "n"}, {"dense bits", "dense |m_g|"}, {"sparse bits", "sparse |m_g|"}, {"bound", "bound bits"}},
	},
}

// figuresTable is one JSON line of BENCH_FIGURES.json.
type figuresTable struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// TestExperimentsMatchFigures ties EXPERIMENTS.md's hand-typed tables to
// BENCH_FIGURES.json, which `make json` regenerates and CI gates for drift:
// a changed result must change the prose too. Each table must also fail
// with one of its cells edited, or the comparison proves nothing.
func TestExperimentsMatchFigures(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	figures := readFigures(t)
	lines := strings.Split(string(doc), "\n")
	for _, q := range quotedTables {
		t.Run(q.name, func(t *testing.T) {
			fig, ok := figures[q.title]
			if !ok {
				t.Fatalf("BENCH_FIGURES.json has no table %q", q.title)
			}
			cells, err := markdownTable(lines, q.intro)
			if err != nil {
				t.Fatal(err)
			}
			if err := q.check(cells, fig); err != nil {
				t.Fatal(err)
			}
			last := cells[len(cells)-1]
			last[len(last)-1] += "0"
			if q.check(cells, fig) == nil {
				t.Fatal("an edited cell still matches: the comparison is vacuous")
			}
		})
	}
}

// check compares the document's cells, row by row, with fig's columns.
func (q quotedTable) check(cells [][]string, fig figuresTable) error {
	if len(cells) != len(q.rows) {
		return fmt.Errorf("%d rows, want %d (%v)", len(cells), len(q.rows), q.rows)
	}
	for i, row := range cells {
		label, column := q.rows[i][0], q.rows[i][1]
		if row[0] != label {
			return fmt.Errorf("row %d is %q, want %q", i, row[0], label)
		}
		col := slices.Index(fig.Columns, column)
		if col < 0 {
			return fmt.Errorf("%q has no column %q", fig.Title, column)
		}
		if len(row)-1 != len(fig.Rows) {
			return fmt.Errorf("row %q has %d cells, BENCH_FIGURES.json %d rows", label, len(row)-1, len(fig.Rows))
		}
		for j, cell := range row[1:] {
			if want := fig.Rows[j][col]; cell != want {
				return fmt.Errorf("row %q cell %d is %s, BENCH_FIGURES.json's %q is %s", label, j+1, cell, column, want)
			}
		}
	}
	return nil
}

// markdownTable returns the cells of the table that follows the line intro,
// one slice per row, the separator row left out.
func markdownTable(lines []string, intro string) ([][]string, error) {
	at := -1
	for i, l := range lines {
		if l == intro {
			at = i
		}
	}
	if at < 0 {
		return nil, fmt.Errorf("EXPERIMENTS.md has no line %q", intro)
	}
	var cells [][]string
	for _, l := range lines[at+1:] {
		if l == "" && cells == nil {
			continue
		}
		if !strings.HasPrefix(l, "|") {
			break
		}
		row := strings.Split(strings.Trim(l, "|"), "|")
		for i := range row {
			row[i] = strings.TrimSpace(row[i])
		}
		if strings.Trim(row[0], "-") != "" {
			cells = append(cells, row)
		}
	}
	if cells == nil {
		return nil, fmt.Errorf("no table after %q", intro)
	}
	return cells, nil
}

// readFigures parses BENCH_FIGURES.json, one table a line, by title.
func readFigures(t *testing.T) map[string]figuresTable {
	f, err := os.Open("BENCH_FIGURES.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tables := map[string]figuresTable{}
	for dec := json.NewDecoder(f); dec.More(); {
		var tb figuresTable
		if err := dec.Decode(&tb); err != nil {
			t.Fatalf("BENCH_FIGURES.json: %v", err)
		}
		tables[tb.Title] = tb
	}
	return tables
}
