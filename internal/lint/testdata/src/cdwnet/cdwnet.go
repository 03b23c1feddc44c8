// Package cdwnet is an endian analyzer fixture: the import path ends in
// /cdwnet, putting the CDW protocol's frames in the wire-format scope.
package cdwnet

import "encoding/binary"

// violating: a little-endian frame length desynchronizes the CDW stream.
func putFrameLenLE(dst []byte, n uint32) {
	binary.LittleEndian.PutUint32(dst, n) // want "binary.LittleEndian in a wire-format package"
}

// conforming: network byte order.
func putFrameLen(dst []byte, n uint32) {
	binary.BigEndian.PutUint32(dst, n)
}
