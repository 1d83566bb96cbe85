package transport

import (
	"io"

	"github.com/spectrecep/spectre/internal/wire"
)

// AppendFrame and ReadFrame forward to internal/wire, where the CRC frame
// lives; their one remaining caller is benchmark/layers.go (ROADMAP item 7).
func AppendFrame(buf []byte, kind byte, body []byte) ([]byte, error) {
	return wire.AppendFrame(buf, kind, body)
}

func ReadFrame(r io.Reader, buf []byte) (byte, []byte, error) { return wire.ReadFrame(r, buf) }
