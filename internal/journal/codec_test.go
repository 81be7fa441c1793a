package journal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// appendRecord encodes r onto dst in one buffer, with the checksum taken
// over the whole payload at once. It is the framing's test oracle: the
// writers' header-then-body path must produce its bytes exactly.
func appendRecord(dst []byte, r Record) []byte {
	n := payloadHeader + len(r.Body)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = append(dst, 0, 0, 0, 0) // checksum backfilled below
	at := len(dst)
	dst = append(dst, recordVersion, byte(r.Kind))
	dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
	dst = append(dst, r.Body...)
	sum := crc32.Checksum(dst[at:], castagnoli)
	binary.LittleEndian.PutUint32(dst[at-4:at], sum)
	return dst
}

// TestWriterFramesMatchAppendRecord appends random records — empty
// bodies, small ones and one several times the writer's buffer — and
// requires the segment to hold exactly the concatenated appendRecord
// frames, and a snapshot file exactly its frame. A cut at any byte of the
// large record must decode to the clean prefix before it.
func TestWriterFramesMatchAppendRecord(t *testing.T) {
	st, err := Open(t.TempDir(), Options{BufferBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	w, err := st.Create("s1")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const big = 5
	var want []byte
	var bigAt, bigEnd int
	for i := 0; i < 12; i++ {
		size := rng.Intn(100)
		switch i {
		case 2:
			size = 0
		case big:
			size = 1000 + rng.Intn(1000)
		}
		body := make([]byte, size)
		rng.Read(body)
		kind := Kind(1 + rng.Intn(4))
		seq, err := w.Append(kind, body)
		if err != nil {
			t.Fatal(err)
		}
		if i == big {
			bigAt = len(want)
		}
		want = appendRecord(want, Record{Seq: seq, Kind: kind, Body: body})
		if i == big {
			bigEnd = len(want)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(st.Dir(), "s1", segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segment holds %d bytes that differ from the %d bytes of appendRecord frames", len(got), len(want))
	}
	for cut := bigAt; cut <= bigEnd; cut++ {
		recs, clean, err := decodeRecords(got[:cut])
		wantRecs, wantClean := big, bigAt
		if cut == bigEnd {
			wantRecs, wantClean = big+1, bigEnd
		}
		if err != nil || len(recs) != wantRecs || clean != wantClean {
			t.Fatalf("cut %d bytes into the large record: %d records, clean %d, err %v; want %d, %d, nil",
				cut-bigAt, len(recs), clean, err, wantRecs, wantClean)
		}
	}

	seq, err := w.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 3000)
	rng.Read(body)
	if err := w.CommitSnapshot(seq, body); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(st.Dir(), "s1", snapName(seq)))
	if err != nil {
		t.Fatal(err)
	}
	if frame := appendRecord(nil, Record{Seq: seq, Kind: KindSnapshot, Body: body}); !bytes.Equal(snap, frame) {
		t.Fatal("the snapshot file differs from its appendRecord frame")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
