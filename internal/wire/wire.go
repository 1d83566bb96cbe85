// Package wire is the one binary codec layer under this tree's message
// grammars (client link, cluster link, WAL record, shard export blob;
// DESIGN.md "Wire formats"). It holds the Append* writers, the bounded
// Reader that undoes them, the CRC frame messages travel or rest in, and
// the event column codec, the one encoding of an event batch on every
// link; kinds and what surrounds an event batch belong to each grammar.
// Fixed-width integers are little-endian everywhere.
//
// Everything read here may be hostile: a frame's length word and every
// collection count are checked against the bytes actually present before
// anything is allocated for them.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

func AppendU32(b []byte, v uint32) []byte     { return binary.LittleEndian.AppendUint32(b, v) }
func AppendU64(b []byte, v uint64) []byte     { return binary.LittleEndian.AppendUint64(b, v) }
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func AppendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendStr and AppendBytes write a u32 length and the bytes.
func AppendStr(b []byte, s string) []byte   { return append(AppendU32(b, uint32(len(s))), s...) }
func AppendBytes(b []byte, p []byte) []byte { return append(AppendU32(b, uint32(len(p))), p...) }

// AppendStrs writes a u32 count and each string as AppendStr does.
func AppendStrs(b []byte, ss []string) []byte {
	b = AppendU32(b, uint32(len(ss)))
	for _, s := range ss {
		b = AppendStr(b, s)
	}
	return b
}

// AppendU64s writes a u32 count and each value as a u64.
func AppendU64s(b []byte, vs []uint64) []byte {
	b = AppendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = AppendU64(b, v)
	}
	return b
}

// Reader is a sticky-error cursor over one message: the first malformed
// field poisons it and every later accessor returns a zero value, so a
// message decoder reads straight through and checks Finish once.
//
// A collection length can only be obtained through Count, Uvcount or
// Need, which take the minimum encoded size of one element and fail unless
// that many elements still fit in the unread input: an allocation sized by
// the count is proportional to bytes really delivered, whatever it claims.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b; only Take returns memory of b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Fail poisons the reader, for a decoder's own range checks; the first wins.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (r *Reader) Err() error { return r.err }

// Finish returns the sticky error, or an error if input is left over.
func (r *Reader) Finish() error {
	if r.err == nil && r.off != len(r.b) {
		r.Fail("%d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

// Take returns the next n bytes without copying, or nil once poisoned.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.Fail("need %d bytes at offset %d, have %d", n, r.off, len(r.b)-r.off)
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *Reader) U8() byte    { return r.fixed(1)[0] }
func (r *Reader) U32() uint32 { return binary.LittleEndian.Uint32(r.fixed(4)) }
func (r *Reader) U64() uint64 { return binary.LittleEndian.Uint64(r.fixed(8)) }

// fixed is Take for a fixed-width field: a poisoned reader yields zero
// bytes, which decode as the zero value.
func (r *Reader) fixed(n int) []byte {
	if p := r.Take(n); p != nil {
		return p
	}
	return zeros[:n]
}

var zeros [8]byte

// Bool accepts only the two bytes AppendBool writes, so an accepted
// message re-encodes to itself.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.Fail("bad bool byte %d", v)
	}
	return v == 1
}

func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.Fail("bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Varint undoes AppendVarint's zigzag coding.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Need reports whether n elements of at least per encoded bytes each
// still fit in the unread input, and poisons the reader if they do not. It
// is for a count read earlier than its elements start.
func (r *Reader) Need(n, per int) bool { r.bounded(uint64(n), per); return r.err == nil }

// Count reads a u32 collection length under the Need(n, per) rule.
func (r *Reader) Count(per int) int { return r.bounded(uint64(r.U32()), per) }

// Uvcount reads a uvarint collection length under the Need(n, per) rule.
func (r *Reader) Uvcount(per int) int { return r.bounded(r.Uvarint(), per) }

// bounded takes n unsigned so that a negative int or an oversized uvarint
// fails the first comparison instead of wrapping the product.
func (r *Reader) bounded(n uint64, per int) int {
	left := uint64(len(r.b) - r.off)
	if r.err == nil && (n > left || n*uint64(per) > left) {
		r.Fail("collection of %d×≥%dB overruns the %d bytes left", n, per, left)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

func (r *Reader) Str() string { return string(r.Take(r.Count(1))) }

// Bytes returns a copy, so the message outlives a reused frame buffer.
func (r *Reader) Bytes() []byte { return append([]byte(nil), r.Take(r.Count(1))...) }

// Strs and U64s undo AppendStrs and AppendU64s; an empty list is nil.
func (r *Reader) Strs() []string {
	n := r.Count(4)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.Str()
	}
	return out
}

func (r *Reader) U64s() []uint64 {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.U64()
	}
	return out
}

// A frame is [len u32][crc32c u32][payload]: len counts the payload, crc
// is CRC-32C (Castagnoli: hardware-accelerated on amd64 and arm64) over
// it. A payload is a kind byte and a body, so len is at least 1; the kind,
// which selects the body's grammar, is all this package knows of a message.
const (
	// MaxFrameBytes bounds one payload: room for a WAL record of a large
	// ingest batch, small enough that a corrupt length cannot exhaust
	// memory.
	MaxFrameBytes = 64 << 20
	// FrameOverhead is what a frame adds to its body: header and kind byte.
	FrameOverhead = frameHeader + 1
	frameHeader   = 8
	// readChunk is ReadFrame's allocation step: its buffer grows as bytes
	// arrive, so a frame that claims a huge length and delivers little
	// costs at most two chunks beyond what was received.
	readChunk = 1 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// FrameError reports a structurally invalid frame: bad length, checksum
// mismatch or, from NextFrame, a frame cut short. Unlike an io error it
// means corruption: a link must be dropped, a log tail is a torn write.
type FrameError struct{ Reason string }

func (e *FrameError) Error() string { return "wire: bad frame: " + e.Reason }

// AppendFrame appends the frame whose payload is kind followed by body.
func AppendFrame(buf []byte, kind byte, body []byte) ([]byte, error) {
	n := len(body) + 1
	if n > MaxFrameBytes {
		return buf, &FrameError{Reason: fmt.Sprintf("payload %d bytes exceeds limit %d", n, MaxFrameBytes)}
	}
	start := len(buf)
	buf = append(append(buf, 0, 0, 0, 0, 0, 0, 0, 0, kind), body...)
	binary.LittleEndian.PutUint32(buf[start:], uint32(n))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(buf[start+frameHeader:], crcTable))
	return buf, nil
}

// header validates a frame header's length word.
func header(hdr []byte) (n int, crc uint32, err error) {
	if n = int(binary.LittleEndian.Uint32(hdr)); n < 1 || n > MaxFrameBytes {
		err = &FrameError{Reason: fmt.Sprintf("payload length %d outside 1..%d", n, MaxFrameBytes)}
	}
	return n, binary.LittleEndian.Uint32(hdr[4:]), err
}

func checkCRC(payload []byte, want uint32) error {
	if got := crc32.Checksum(payload, crcTable); got != want {
		return checksumError(want, got)
	}
	return nil
}

func checksumError(want, got uint32) error {
	return &FrameError{Reason: fmt.Sprintf("checksum mismatch: frame says %08x, payload is %08x", want, got)}
}

// ReadFrame reads the next frame from r into scratch, reallocating when it
// is too small; body aliases the buffer used, from its first byte, so
// passing body[:0] back as the next scratch keeps its full capacity and an
// equal-sized frame allocates nothing. A bad length or checksum is a
// *FrameError, a short read the io error (io.EOF only on a frame
// boundary).
func ReadFrame(r io.Reader, scratch []byte) (kind byte, body []byte, err error) {
	// The header and the kind byte (a payload has at least one) are read
	// into the buffer, then the body over them: it lands at the buffer's
	// start, and no header array escapes to the heap.
	buf := scratch[:0]
	if cap(buf) < frameHeader+1 {
		buf = make([]byte, 0, frameHeader+1)
	}
	hdr := buf[:frameHeader+1]
	if got, err := io.ReadFull(r, hdr); err != nil {
		if got >= frameHeader {
			if _, _, herr := header(hdr); herr != nil {
				return 0, nil, herr
			}
		}
		return 0, nil, err
	}
	n, crc, err := header(hdr)
	if err != nil {
		return 0, nil, err
	}
	kind = hdr[frameHeader]
	sum := crc32.Update(0, crcTable, hdr[frameHeader:])
	n-- // the body, past the kind byte
	for len(buf) < n {
		step := min(n-len(buf), readChunk)
		if cap(buf)-len(buf) < step {
			buf = append(make([]byte, 0, min(n, len(buf)+2*readChunk)), buf...)
		}
		if _, err := io.ReadFull(r, buf[len(buf):len(buf)+step]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
		buf = buf[:len(buf)+step]
	}
	if sum = crc32.Update(sum, crcTable, buf); sum != crc {
		return 0, nil, checksumError(crc, sum)
	}
	return kind, buf, nil
}

// NextFrame splits the first frame off data, which holds frames back to
// back; payload aliases data. Every failure is a *FrameError.
func NextFrame(data []byte) (payload, rest []byte, err error) {
	if len(data) < frameHeader {
		return nil, nil, &FrameError{Reason: "short frame header"}
	}
	n, crc, err := header(data)
	if err != nil {
		return nil, nil, err
	}
	if len(data)-frameHeader < n {
		return nil, nil, &FrameError{Reason: "short frame payload"}
	}
	payload = data[frameHeader : frameHeader+n]
	return payload, data[frameHeader+n:], checkCRC(payload, crc)
}
