// Package frame is the one data format the lifecycle journal and the
// remote-raise wire share:
//
//	kind:1 | payloadLen:uvarint | payload | crc32c:4 (little-endian)
//
// with a self-describing payload of tagged fields — key uvarint
// (id<<1 | wire), then a uvarint value (wire 0) or a length-prefixed byte
// string (wire 1). Zero and empty fields are omitted, signed values are
// zigzag-folded, and decoders skip keys they do not know, so the framing
// is forward-compatible. The CRC covers kind, length and payload, so a
// single corrupted byte anywhere in a frame is detected at decode.
//
// Each caller keeps what is its own: the field ids, the valid kind range,
// and the error values its callers match.
package frame

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

var (
	// ErrTruncated reports a frame cut off by the end of the buffer.
	ErrTruncated = errors.New("frame: truncated")
	// ErrCorrupt reports a frame whose CRC does not match its bytes.
	ErrCorrupt = errors.New("frame: CRC mismatch")
)

// crcTable is the Castagnoli table; CRC-32C has hardware support on the
// platforms this targets.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Varint and Bytes are the keys of field id in its two wire types, for
// matching what Next returns.
func Varint(id int) uint64 { return uint64(id) << 1 }
func Bytes(id int) uint64  { return uint64(id)<<1 | 1 }

// AppendField appends a wire-0 field; zero values are omitted and decode
// to their default.
func AppendField(dst []byte, id int, v uint64) []byte {
	if v == 0 {
		return dst
	}
	dst = binary.AppendUvarint(dst, Varint(id))
	return binary.AppendUvarint(dst, v)
}

// AppendString appends a wire-1 field holding s; empty strings are omitted.
func AppendString(dst []byte, id int, s string) []byte {
	if s == "" {
		return dst
	}
	dst = binary.AppendUvarint(dst, Bytes(id))
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends a wire-1 field holding b; empty slices are omitted.
func AppendBytes(dst []byte, id int, b []byte) []byte {
	if len(b) == 0 {
		return dst
	}
	dst = binary.AppendUvarint(dst, Bytes(id))
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// Zigzag folds signed integers into unsigned space, small magnitudes
// first.
//
//spinvet:pure
func Zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// Unzigzag inverts Zigzag.
//
//spinvet:pure
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Append frames payload under kind onto dst and returns the extended
// slice.
func Append(dst []byte, kind byte, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable))
}

// Decode checks the frame at the front of buf and returns its kind byte,
// its payload (aliasing buf) and the number of bytes the frame occupies.
// The error is ErrTruncated when buf ends inside the frame and ErrCorrupt
// when the CRC does not match.
func Decode(buf []byte) (kind byte, payload []byte, n int, err error) {
	if len(buf) < 1 {
		return 0, nil, 0, ErrTruncated
	}
	plen, ln := binary.Uvarint(buf[1:])
	if ln <= 0 {
		return 0, nil, 0, ErrTruncated
	}
	head := 1 + ln
	if plen > uint64(len(buf)-head) {
		return 0, nil, 0, ErrTruncated
	}
	end := head + int(plen)
	if len(buf) < end+4 {
		return 0, nil, 0, ErrTruncated
	}
	if crc32.Checksum(buf[:end], crcTable) != binary.LittleEndian.Uint32(buf[end:]) {
		return 0, nil, 0, ErrCorrupt
	}
	return buf[0], buf[head:end], end + 4, nil
}

// Next decodes the field at the front of payload p: its key (compare with
// Varint(id) or Bytes(id)), then v for a wire-0 field or b (aliasing p)
// for a wire-1 field, and the rest of the payload. ok is false when the
// field is malformed; the frame's CRC having matched, that is a writer
// bug or a collision, and callers report it as corruption.
func Next(p []byte) (key, v uint64, b, rest []byte, ok bool) {
	key, kn := binary.Uvarint(p)
	if kn <= 0 {
		return 0, 0, nil, nil, false
	}
	p = p[kn:]
	v, vn := binary.Uvarint(p)
	if vn <= 0 {
		return 0, 0, nil, nil, false
	}
	p = p[vn:]
	if key&1 == 0 {
		return key, v, nil, p, true
	}
	if v > uint64(len(p)) {
		return 0, 0, nil, nil, false
	}
	return key, 0, p[:v], p[v:], true
}
