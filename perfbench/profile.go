package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the names the CPU profile is folded into, in report order.
// "other" collects the benchmark's own code and stacks that reach no
// layer.
var layers = []string{"workload", "sim", "eventq", "core", "randdist", "policy", "runtime", "other"}

// layerOf maps a Go package path to its layer, or "" for a package that is
// not a layer of its own: standard-library code such as compress/flate or
// encoding/json is charged to the layer that called it.
func layerOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		switch rest {
		case "workload", "sim", "eventq", "core", "randdist":
			return rest
		case "policy", "stats":
			return "policy"
		}
		return "other"
	}
	switch {
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "main":
		return "other"
	}
	return ""
}

// packageOf returns the package path of a Go function symbol such as
// "repro/internal/core.(*CentralQueue).Assign" or
// "repro/internal/eventq.(*Engine[go.shape.struct {...}]).Run".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// foldProfile reads a gzip-compressed pprof CPU profile, as
// runtime/pprof writes it, and adds each sample's count to the layer of
// its innermost frame that belongs to one. It returns the samples added.
func foldProfile(data []byte, into map[string]int64) (int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return 0, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, s := range p.samples {
		layer := "other"
	frames:
		for _, locID := range s.locations {
			for _, fnID := range p.locations[locID] {
				if l := layerOf(packageOf(p.strings[p.functions[fnID]])); l != "" {
					layer = l
					break frames
				}
			}
		}
		into[layer] += s.count
		total += s.count
	}
	return total, nil
}

// profile is the part of a pprof profile the fold reads.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name's string-table index
	strings   []string
}

type sample struct {
	locations []uint64 // leaf first
	count     int64    // the first sample value: samples
}

// Field numbers of profile.proto
// (github.com/google/pprof/proto/profile.proto).
const (
	profileSample      = 2
	profileLocation    = 4
	profileFunction    = 5
	profileStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case profileSample:
			var s sample
			var values []uint64
			if err := eachField(msg, func(num int, v uint64, msg []byte) error {
				switch num {
				case sampleLocationID:
					return appendRepeated(&s.locations, v, msg)
				case sampleValue:
					return appendRepeated(&values, v, msg)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) == 0 {
				return errors.New("profile: sample without values")
			}
			s.count = int64(values[0])
			p.samples = append(p.samples, s)
		case profileLocation:
			var id uint64
			var fns []uint64
			if err := eachField(msg, func(num int, v uint64, msg []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(msg, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locations[id] = fns
		case profileFunction:
			var id uint64
			var name int64
			if err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.functions[id] = name
		case profileStringTable:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: function name index %d outside the string table", name)
		}
	}
	for _, s := range p.samples {
		for _, loc := range s.locations {
			fns, ok := p.locations[loc]
			if !ok {
				return nil, fmt.Errorf("profile: sample names unknown location %d", loc)
			}
			for _, fn := range fns {
				if _, ok := p.functions[fn]; !ok {
					return nil, fmt.Errorf("profile: location %d names unknown function %d", loc, fn)
				}
			}
		}
	}
	return p, nil
}

// eachField calls f for every field of a protobuf message: v holds a
// varint field's value, msg a length-delimited field's bytes. Fixed-width
// fields are skipped.
func eachField(b []byte, f func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var msg []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("profile: bad length")
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
		if err := f(num, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendRepeated appends a repeated varint field, packed (msg) or not (v).
func appendRepeated(dst *[]uint64, v uint64, msg []byte) error {
	if msg == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}
