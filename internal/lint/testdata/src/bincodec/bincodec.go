// Package bincodec is an endian analyzer fixture: the import path ends in
// /bincodec, putting the primitives both protocols share in the wire-format
// scope.
package bincodec

import "encoding/binary"

// violating: a host-order field reads differently on a big-endian peer.
func u64Native(p []byte) uint64 {
	return binary.NativeEndian.Uint64(p) // want "binary.NativeEndian in a wire-format package"
}

// conforming: network byte order.
func u64(p []byte) uint64 {
	return binary.BigEndian.Uint64(p)
}
