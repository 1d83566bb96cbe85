package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var b []byte
	b = AppendU32(b, 0xdeadbeef)
	b = AppendU64(b, math.MaxUint64-1)
	b = AppendBool(AppendBool(b, true), false)
	b = AppendUvarint(b, 300)
	b = AppendVarint(AppendVarint(b, -77), math.MinInt64)
	b = AppendStr(b, "héllo")
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendStrs(b, []string{"a", "", "ccc"})
	b = AppendU64s(b, []uint64{9, 8})
	b = AppendStrs(AppendU64s(AppendBytes(b, nil), nil), nil)
	b = append(b, 0x7f)

	r := NewReader(b)
	got := []any{r.U32(), r.U64(), r.Bool(), r.Bool(), r.Uvarint(), r.Varint(), r.Varint(),
		r.Str(), r.Bytes(), r.Strs(), r.U64s(), r.Bytes(), r.U64s(), r.Strs(), r.U8()}
	want := []any{uint32(0xdeadbeef), uint64(math.MaxUint64 - 1), true, false, uint64(300), int64(-77), int64(math.MinInt64),
		"héllo", []byte{1, 2, 3}, []string{"a", "", "ccc"}, []uint64{9, 8}, []byte(nil), []uint64(nil), []string(nil), byte(0x7f)}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got  %#v\n want %#v", got, want)
	}
	// Little-endian, as the WAL and the client event stream already were.
	if !bytes.Equal(b[:4], []byte{0xef, 0xbe, 0xad, 0xde}) {
		t.Fatalf("u32 bytes % x are not little-endian", b[:4])
	}
}

// TestStickyError: the first malformed field poisons the reader, later
// accessors return zero values, and Finish reports that first error.
func TestStickyError(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if v := r.U32(); v != 0 || r.Err() == nil {
		t.Fatalf("short U32 = %d, err %v", v, r.Err())
	}
	first := r.Err()
	if r.U8() != 0 || r.U64() != 0 || r.Str() != "" || r.Bytes() != nil || r.Take(1) != nil || r.Need(0, 1) {
		t.Fatal("poisoned reader returned a non-zero value")
	}
	r.Fail("later")
	if r.Finish() != first {
		t.Fatalf("Finish = %v, want the first error %v", r.Finish(), first)
	}

	for name, tc := range map[string]struct {
		in   []byte
		read func(r *Reader)
	}{
		"trailing byte": {[]byte{0}, func(r *Reader) {}},
		"bad bool":      {[]byte{2}, func(r *Reader) { r.Bool() }},
		"long uvarint":  {bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uvarint() }},
		"cut varint":    {[]byte{0x80}, func(r *Reader) { r.Varint() }},
	} {
		r := NewReader(tc.in)
		if tc.read(&r); r.Finish() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// allocatedBy reports the heap bytes f allocates (freed or not).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHostileCount: a count of 1<<26 with nothing behind it is an error
// from every accessor that sizes a collection, found before anything is
// allocated for it.
func TestHostileCount(t *testing.T) {
	u32 := AppendU32(nil, 1<<26)
	uv := AppendUvarint(nil, 1<<26)
	for _, tc := range []struct {
		label string
		in    []byte
		read  func(r *Reader)
	}{
		{"Count", u32, func(r *Reader) { _ = make([]uint64, r.Count(8)) }},
		{"Uvcount", uv, func(r *Reader) { _ = make([]uint64, r.Uvcount(1)) }},
		{"Uvcount overflowing int", AppendUvarint(nil, math.MaxUint64), func(r *Reader) { _ = make([]byte, r.Uvcount(1)) }},
		{"Need", nil, func(r *Reader) {
			if r.Need(1<<26, 2) {
				_ = make([]uint16, 1<<26)
			}
		}},
		{"Need negative", nil, func(r *Reader) { r.Need(-1, 1) }},
		{"Str", u32, func(r *Reader) { r.Str() }},
		{"Bytes", u32, func(r *Reader) { r.Bytes() }},
		{"Strs", u32, func(r *Reader) { r.Strs() }},
		{"U64s", u32, func(r *Reader) { r.U64s() }},
		// A count that fits the remaining bytes only if elements were
		// smaller than they are.
		{"U64s one byte short", append(AppendU32(nil, 2), make([]byte, 15)...), func(r *Reader) { r.U64s() }},
		{"Strs one byte short", append(AppendU32(nil, 2), make([]byte, 7)...), func(r *Reader) { r.Strs() }},
	} {
		t.Run(tc.label, func(t *testing.T) {
			r := NewReader(tc.in)
			got := allocatedBy(func() { tc.read(&r) })
			if r.Finish() == nil {
				t.Fatal("a count with no payload behind it must be an error")
			}
			if got > 8<<10 {
				t.Fatalf("%d hostile bytes allocated %d bytes", len(tc.in), got)
			}
		})
	}
}

func TestFrameRoundTrip(t *testing.T) {
	bodies := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 1<<16)}
	var all []byte
	for i, body := range bodies {
		var err error
		before := len(all)
		if all, err = AppendFrame(all, byte(i+1), body); err != nil {
			t.Fatalf("append frame %d: %v", i, err)
		}
		if got := len(all) - before; got != FrameOverhead+len(body) {
			t.Fatalf("frame %d is %d bytes, want FrameOverhead+%d", i, got, len(body))
		}
	}
	stream, rest := bytes.NewReader(all), all
	var scratch []byte
	for i, body := range bodies {
		kind, got, err := ReadFrame(stream, scratch)
		if err != nil || kind != byte(i+1) || !bytes.Equal(got, body) {
			t.Fatalf("ReadFrame %d: kind %d, %d bytes, err %v", i, kind, len(got), err)
		}
		scratch = got[:0]
		var payload []byte
		if payload, rest, err = NextFrame(rest); err != nil || payload[0] != byte(i+1) || !bytes.Equal(payload[1:], body) {
			t.Fatalf("NextFrame %d: payload of %d bytes, err %v", i, len(payload), err)
		}
	}
	if _, _, err := ReadFrame(stream, nil); err != io.EOF {
		t.Fatalf("trailing ReadFrame = %v, want io.EOF", err)
	}
	if len(rest) != 0 {
		t.Fatalf("NextFrame left %d bytes", len(rest))
	}
	if _, err := AppendFrame(nil, 1, make([]byte, MaxFrameBytes)); !isFrameError(err) {
		t.Fatalf("oversized AppendFrame = %v, want *FrameError", err)
	}
}

// TestReadFrameReusesScratch: a reader that passes body[:0] back, as
// every link does, reads each equal-sized frame after the first with no
// allocation, whether the body is empty, small or chunk-sized.
func TestReadFrameReusesScratch(t *testing.T) {
	for _, size := range []int{0, 3, 200, 64 << 10} {
		frame, err := AppendFrame(nil, 9, bytes.Repeat([]byte{0x5A}, size))
		if err != nil {
			t.Fatal(err)
		}
		r := bytes.NewReader(frame)
		var scratch []byte
		read := func() {
			r.Reset(frame)
			kind, body, err := ReadFrame(r, scratch)
			if err != nil || kind != 9 || len(body) != size {
				t.Fatalf("size %d: kind %d, %d bytes, err %v", size, kind, len(body), err)
			}
			scratch = body[:0]
		}
		read()
		if n := testing.AllocsPerRun(100, read); n != 0 {
			t.Errorf("size %d: %v allocs per frame after the first, want 0", size, n)
		}
	}
}

func isFrameError(err error) bool {
	var fe *FrameError
	return errors.As(err, &fe)
}

// TestFrameCorruption: no corruption is ever accepted. ReadFrame answers
// with a *FrameError or an io error, NextFrame always with a *FrameError
// (to a log, a cut-short frame is a torn tail, not an io condition).
func TestFrameCorruption(t *testing.T) {
	raw, err := AppendFrame(nil, 7, []byte("hello cluster"))
	if err != nil {
		t.Fatal(err)
	}
	withLen := func(n uint32) []byte {
		return binary.LittleEndian.AppendUint32(nil, n)
	}
	// badLength cases are a *FrameError from ReadFrame too; the others may
	// surface there as a short read.
	type corruption struct {
		data      []byte
		badLength bool
	}
	cases := map[string]corruption{
		"oversize length": {append(withLen(MaxFrameBytes+1), raw[4:]...), true},
		"zero length":     {make([]byte, 8), true},
		"torn header":     {data: raw[:5]},
		"torn payload":    {data: raw[:len(raw)-1]},
		"claims 1 MiB":    {data: append(withLen(1<<20), raw[4:]...)},
	}
	// Flip every byte position in turn.
	for i := range raw {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x40
		cases[fmt.Sprintf("flip byte %d", i)] = corruption{data: mut}
	}
	for name, tc := range cases {
		_, _, err := ReadFrame(bytes.NewReader(tc.data), nil)
		if !isFrameError(err) && (tc.badLength || err != io.ErrUnexpectedEOF) {
			t.Errorf("ReadFrame %s: err = %v", name, err)
		}
		if _, _, err := NextFrame(tc.data); !isFrameError(err) {
			t.Errorf("NextFrame %s: err = %v, want *FrameError", name, err)
		}
	}
	// A length the stream cannot back costs one chunk, not the claim.
	huge := append(withLen(MaxFrameBytes), make([]byte, 5)...)
	if got := allocatedBy(func() { _, _, err = ReadFrame(bytes.NewReader(huge), nil) }); err == nil || got > 3*readChunk {
		t.Fatalf("64 MiB claim over 5 bytes: err %v, allocated %d", err, got)
	}
}

// FuzzReadFrame drives ReadFrame with arbitrary bytes: whatever the
// length, CRC or kind corruption, decoding must return a structured error
// (*FrameError or an io error), never panic, and agree with NextFrame on
// what is a frame. Valid frames must round-trip.
func FuzzReadFrame(f *testing.F) {
	seed, _ := AppendFrame(nil, 3, []byte("seed body"))
	f.Add(seed)
	f.Add([]byte{})
	f.Add(make([]byte, 8))
	f.Add(append(binary.LittleEndian.AppendUint32(nil, MaxFrameBytes), 0, 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, rest := bytes.NewReader(data), data
		var scratch []byte
		for {
			kind, body, err := ReadFrame(r, scratch)
			payload, next, nerr := NextFrame(rest)
			if (err == nil) != (nerr == nil) {
				t.Fatalf("ReadFrame err %v, NextFrame err %v", err, nerr)
			}
			if err != nil {
				if !isFrameError(err) && err != io.EOF && err != io.ErrUnexpectedEOF {
					t.Fatalf("unstructured error: %#v", err)
				}
				return
			}
			if payload[0] != kind || !bytes.Equal(payload[1:], body) {
				t.Fatal("ReadFrame and NextFrame disagree on the payload")
			}
			// Accepted frames re-encode to the bytes they came from.
			re, err := AppendFrame(nil, kind, body)
			if err != nil || !bytes.Equal(re, rest[:len(rest)-len(next)]) {
				t.Fatalf("re-encode mismatch: %v", err)
			}
			scratch, rest = body[:0], next
		}
	})
}
