package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Record framing, version 1. Every record — command and snapshot alike —
// is one frame:
//
//	[4B LE length][4B LE CRC32C(payload)][payload]
//	payload = [1B version][1B kind][8B LE seq][body]
//
// The length counts the payload only, the checksum (Castagnoli) covers
// the payload only, and seq numbers are per-session, starting at 1 and
// strictly sequential. writeRecord writes the frame and payload headers,
// then the body, into one sequential stream (a segment's buffered writer
// or a snapshot file) that no other record shares while it is written, so
// a crash mid-append leaves a prefix of a frame — never interleaved
// frames.
const (
	recordVersion = 1
	frameHeader   = 8         // length + checksum
	payloadHeader = 1 + 1 + 8 // version + kind + seq
	recordHeader  = frameHeader + payloadHeader
	maxRecord     = 1 << 30 // sanity cap: random corruption rarely passes
)

// Kind discriminates journal records. The values are part of the on-disk
// format; never renumber them.
type Kind uint8

const (
	// KindCreate is a session's first record: the create-session request.
	KindCreate Kind = 1
	// KindRound is one advance-round command.
	KindRound Kind = 2
	// KindDrift is one drift command.
	KindDrift Kind = 3
	// KindAbort marks the preceding command as failed-without-effect: it
	// was journaled before execution, executed, and left no state behind.
	// Replay skips a command followed by an abort.
	KindAbort Kind = 4
	// KindSnapshot is a full session snapshot; it lives alone in its own
	// snap-*.snap file, never inside a wal segment.
	KindSnapshot Kind = 5
)

func (k Kind) String() string {
	switch k {
	case KindCreate:
		return "create"
	case KindRound:
		return "round"
	case KindDrift:
		return "drift"
	case KindAbort:
		return "abort"
	case KindSnapshot:
		return "snapshot"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Record is one decoded journal entry.
type Record struct {
	// Seq is the session-scoped sequence number, starting at 1.
	Seq uint64
	// Kind discriminates the body.
	Kind Kind
	// Body is the record payload (typically JSON). It aliases the decoded
	// buffer; copy it to retain past the buffer's lifetime.
	Body []byte
}

// castagnoli is the CRC32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks a mid-log record that is provably damaged — a full
// frame whose checksum, version, or length is wrong with more data behind
// it. A torn tail (a partial final frame from a crash mid-write) is NOT
// corruption; decodeRecords reports it as a clean prefix instead.
var ErrCorrupt = errors.New("journal: corrupt record")

// writeRecord writes r's frame to w: the frame and payload headers, built
// in hdr, then the body, as two writes, so no record-sized buffer is
// needed. The checksum runs over the payload header, then the body. It
// returns the bytes written.
func writeRecord(w io.Writer, hdr *[recordHeader]byte, r Record) (int, error) {
	binary.LittleEndian.PutUint32(hdr[0:], uint32(payloadHeader+len(r.Body)))
	hdr[frameHeader] = recordVersion
	hdr[frameHeader+1] = byte(r.Kind)
	binary.LittleEndian.PutUint64(hdr[frameHeader+2:], r.Seq)
	sum := crc32.Update(crc32.Checksum(hdr[frameHeader:], castagnoli), castagnoli, r.Body)
	binary.LittleEndian.PutUint32(hdr[4:], sum)
	n, err := w.Write(hdr[:])
	if err != nil {
		return n, err
	}
	m, err := w.Write(r.Body)
	return n + m, err
}

// decodeRecords scans buf from the start and returns every cleanly framed
// record plus the byte length of the clean prefix. A partial final frame
// — too few bytes for the header, a length running past the end, or a
// checksum mismatch on the very last frame — is a torn tail: decoding
// stops with err == nil and clean < len(buf), and the caller truncates.
// Anything provably wrong with data still behind it (bad checksum, bad
// version, impossible length mid-log) is ErrCorrupt.
func decodeRecords(buf []byte) (recs []Record, clean int, err error) {
	off := 0
	for off < len(buf) {
		rem := buf[off:]
		if len(rem) < frameHeader {
			return recs, off, nil // torn header
		}
		n := int(binary.LittleEndian.Uint32(rem))
		if n < payloadHeader || n > maxRecord {
			return recs, off, fmt.Errorf("%w: frame at offset %d declares %d payload bytes", ErrCorrupt, off, n)
		}
		if len(rem) < frameHeader+n {
			return recs, off, nil // torn payload
		}
		payload := rem[frameHeader : frameHeader+n]
		sum := binary.LittleEndian.Uint32(rem[4:])
		if crc32.Checksum(payload, castagnoli) != sum {
			if off+frameHeader+n == len(buf) {
				// The final frame is complete in length but fails its
				// checksum: a torn write that got the header down and part
				// of the payload overwritten by zeros or garbage. Nothing
				// follows it, so truncating loses only the torn record.
				return recs, off, nil
			}
			return recs, off, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, off)
		}
		if payload[0] != recordVersion {
			return recs, off, fmt.Errorf("%w: record version %d at offset %d (want %d)", ErrCorrupt, payload[0], off, recordVersion)
		}
		recs = append(recs, Record{
			Seq:  binary.LittleEndian.Uint64(payload[2:]),
			Kind: Kind(payload[1]),
			Body: payload[payloadHeader:],
		})
		off += frameHeader + n
	}
	return recs, off, nil
}
