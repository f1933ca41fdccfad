package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// The collector sets its next goal from the live Go heap. The
// benchmark's own bulk data, the rendered plan and the traced run's
// spans, lives in anonymous memory mappings instead, so that the
// program's live data and allocations alone set the pace of garbage
// collection, as they do in a capserverd process. The mappings live
// until the process exits.

// mapped returns an empty slice with capacity n in a fresh anonymous
// mapping. T must hold no Go pointers: the collector does not scan the
// mapping.
func mapped[T any](n int) ([]T, error) {
	if n == 0 {
		return nil, nil
	}
	var zero T
	mem, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mmap: %w", err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n)[:0], nil
}

// offHeap copies s into a mapping and adds its size in bytes to *size.
func offHeap[T any](s []T, size *int) ([]T, error) {
	out, err := mapped[T](len(s))
	if err != nil {
		return nil, err
	}
	out = append(out, s...)
	*size += len(s) * int(unsafe.Sizeof(*new(T)))
	return out, nil
}
