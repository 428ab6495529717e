// Package pod is the module's one unsafe boundary: it views slices of
// plain-old-data elements as their little-endian bytes and back, in
// place where the host allows it. No other package of the module
// imports unsafe outside its tests (internal/lint's TestModuleClean
// checks it).
//
// An element type has one of two shapes, and the caller pins its size
// in a test: a padding-free struct or array of 32-bit words, or a struct
// of single bytes (alignment 1, so it has no byte order and no
// alignment to keep).
package pod

import (
	"encoding/binary"
	"unsafe"
)

// hostLE reports whether this host stores integers little-endian — the
// serialized byte order, and therefore the alias-in-place fast path.
var hostLE = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Size returns the size in bytes of one T.
func Size[T any]() int { return int(unsafe.Sizeof(*new(T))) }

// Bytes returns the little-endian serialization of s. On little-endian
// hosts, and for byte-aligned element types on any host, it aliases s's
// memory.
func Bytes[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	p := unsafe.Pointer(unsafe.SliceData(s))
	n := len(s) * Size[T]()
	if hostLE || unsafe.Alignof(s[0]) == 1 {
		return unsafe.Slice((*byte)(p), n)
	}
	// Big-endian: the elements are native-order 32-bit words, so writing
	// each word little-endian is exactly the serialized layout.
	words := unsafe.Slice((*uint32)(p), n/4)
	out := make([]byte, n)
	for i, w := range words {
		binary.LittleEndian.PutUint32(out[i*4:], w)
	}
	return out
}

// Slice decodes data as len(data)/Size[T]() elements of T; the caller
// has checked that len(data) is a multiple of the element size. It
// aliases data in place when T is byte-aligned, or when the host is
// little-endian and data is aligned for T, and copies otherwise.
func Slice[T any](data []byte) []T {
	n := len(data) / Size[T]()
	if n == 0 {
		return nil
	}
	p := unsafe.Pointer(unsafe.SliceData(data))
	align := unsafe.Alignof(*new(T))
	if align == 1 || hostLE && uintptr(p)%align == 0 {
		return unsafe.Slice((*T)(p), n)
	}
	out := make([]T, n)
	words := unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(out))), n*Size[T]()/4)
	for i := range words {
		words[i] = binary.LittleEndian.Uint32(data[i*4:])
	}
	return out
}
