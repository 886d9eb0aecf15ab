package durable

import (
	"bytes"
	"testing"
)

// FuzzDecodePayload feeds arbitrary bytes to the WAL payload decoder.
// It must not panic, and every payload it accepts must re-encode
// through putPayload or deletePayload to the same bytes: a decoder that
// accepts bytes the encoder never writes (a put with trailing bytes,
// say) replays a record other than the one logged. Seeded with a put,
// a delete and a put carrying 3 trailing bytes. Part of `make
// fuzzsmoke`.
func FuzzDecodePayload(f *testing.F) {
	put, err := putPayload(7, 3, testComm("seed", 1, 4, 3))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(put)
	f.Add(deletePayload(7, 4))
	f.Add(append(bytes.Clone(put), 1, 2, 3))
	f.Fuzz(func(t *testing.T, p []byte) {
		r, err := decodePayload(p)
		if err != nil {
			return
		}
		var again []byte
		switch r.op {
		case opPut:
			if again, err = putPayload(r.id, r.version, r.comm); err != nil {
				t.Fatalf("re-encoding the accepted put %x: %v", p, err)
			}
		case opDelete:
			again = deletePayload(r.id, r.version)
		default:
			t.Fatalf("accepted payload %x with op %d", p, r.op)
		}
		if !bytes.Equal(again, p) {
			t.Fatalf("accepted payload %x re-encodes to %x", p, again)
		}
	})
}
