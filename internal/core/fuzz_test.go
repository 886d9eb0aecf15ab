package core

import (
	"bytes"
	"os"
	"testing"
)

// FuzzReadPrepared feeds mutated prepared records to ReadPrepared. A
// rejected record is fine; a panic is not. A record that loads must
// also join itself under Ex-MinMax without panicking: loading promises
// a view the scans can index safely, not just a parse.
func FuzzReadPrepared(f *testing.F) {
	for _, file := range []string{"testdata/prepared_v1.csjp", "testdata/prepared_v2.csjp"} {
		rec, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		p, err := ReadPrepared(bytes.NewReader(rec))
		if err != nil {
			return
		}
		if _, err := ExMinMaxPrepared(p, p, Options{}); err != nil {
			t.Fatalf("Ex-MinMax of a loaded view with itself: %v", err)
		}
	})
}
