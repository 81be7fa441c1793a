package dyncontract

import (
	"fmt"
	"testing"

	"dyncontract/internal/journal"
)

// BenchmarkJournalAppend prices the write-ahead hop every journaled
// command pays before it executes, for both durability modes. The
// "buffered" arm is the per-command overhead in the default
// configuration — a CRC32C, a few length-prefixed writes into a
// user-space buffer — and must stay trivially small next to the warm
// round it taxes, BenchmarkEngineRound100k/sequential-warm (the <10%
// acceptance bar). The "fsync" arm
// measures what -journal-sync fsync actually buys per command: a forced
// flush and fdatasync per append, dominated by the storage stack, so it
// is tracked for trend only, never gated — it benchmarks the disk, not
// the code.
func BenchmarkJournalAppend(b *testing.B) {
	// A round-record-sized body: the wire form of a small session's round
	// with outcomes, which is what the server journals per advance.
	body := []byte(fmt.Sprintf(`{"round":%d,"benefit":3.1415926535,"cost":1.2345678901,"utility":1.9070247634,"outcomes":[{"agent_id":"h1","class":"honest","effort":2,"feedback":1.8,"compensation":0.9,"weight":1},{"agent_id":"m1","class":"malicious","effort":1.5,"feedback":0.2,"compensation":0.4,"weight":0.8}]}`, 7))

	for _, mode := range []journal.Mode{journal.ModeBuffered, journal.ModeStrict} {
		b.Run(mode.String(), func(b *testing.B) {
			st, err := journal.Open(b.TempDir(), journal.Options{Mode: mode})
			if err != nil {
				b.Fatal(err)
			}
			w, err := st.Create("bench")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := w.Append(journal.KindCreate, []byte(`{}`)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Append(journal.KindRound, body); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
