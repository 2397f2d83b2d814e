package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// cpuShares decodes a runtime/pprof CPU profile and charges every
// sample's CPU time to the innermost frame that belongs to a
// muxwise/internal layer (see layerOf), or to "runtime" when its stack
// has none. Shares sum to 1 over cpuLayers.
//
// The profile is gzipped protobuf (github.com/google/pprof's
// profile.proto); only the fields attribution needs are decoded.
func cpuShares(raw []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]int64{}    // function id → name string index
		lines   = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var values []int64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return eachVarint(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(v, b, func(x uint64) { values = append(values, int64(x)) })
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.value = values[len(values)-1] // CPU profiles: [count, nanoseconds]
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			lines[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	charged := map[string]float64{}
	var total float64
	for _, s := range samples {
		layer := "runtime"
	walk:
		for _, loc := range s.locs {
			for _, fid := range lines[loc] {
				idx := funcs[fid]
				if idx < 0 || idx >= int64(len(strs)) {
					continue
				}
				if l, ok := layerOf(strs[idx]); ok {
					layer = l
					break walk
				}
			}
		}
		charged[layer] += float64(s.value)
		total += float64(s.value)
	}
	if total == 0 {
		return nil, errors.New("profile: no samples")
	}
	for k := range charged {
		charged[k] /= total
	}
	return charged, nil
}

// eachField walks a protobuf message, calling fn with each field's
// number and either its varint value (v) or its length-delimited bytes
// (b). Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field's values, packed (b set) or
// not (one value v).
func eachVarint(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
