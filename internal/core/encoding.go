package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Binary layout (little endian):
//
//	magic "MRL2" | policy u8 | flags u8 | b u32 | k u32 | count i64 | min f64 | max f64
//	stats: leaves, collapses, weightSum, maxCollapseWeight, fallbacks (i64)
//	nFull u32, then per full buffer: slot u32 | weight i64 | level i32 | k float64
//	fillSlot u32, fillLen u32, fillLevel i32, then fillLen float64
//
// flags bit 0: evenHigh; bit 1: noAlternation; bit 2: fill buffer present.
//
// Slots record each buffer's position in the b-slot array. They matter for
// exact continuation: NEW fills the first empty slot and Munro-Paterson
// breaks weight ties by slot order, so compacting buffers on restore would
// send the restored sketch down a different collapse schedule than the
// original ("MRL1" did exactly that, which is why the magic changed).
const (
	encMagic   = "MRL2"
	flagEven   = 1 << 0
	flagFrozen = 1 << 1
	flagFill   = 1 << 2
)

// MarshalBinary serialises the complete sketch state. A restored sketch
// continues exactly where the original stopped: same answers, same error
// bound, same future collapse schedule. This is the wire format for
// shipping partition summaries between nodes of a distributed plan.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(encMagic)
	var flags byte
	if s.evenHigh {
		flags |= flagEven
	}
	if s.noAlternation {
		flags |= flagFrozen
	}
	if s.fill != nil && len(s.fill.data) > 0 {
		flags |= flagFill
	}
	buf.WriteByte(byte(s.policy))
	buf.WriteByte(flags)
	w := func(v interface{}) {
		// bytes.Buffer writes cannot fail.
		_ = binary.Write(&buf, binary.LittleEndian, v)
	}
	w(uint32(s.b))
	w(uint32(s.k))
	w(s.count)
	w(s.min)
	w(s.max)
	w(s.stats.Leaves)
	w(s.stats.Collapses)
	w(s.stats.WeightSum)
	w(s.stats.MaxCollapseWeight)
	w(s.stats.OffsetSum)
	w(s.stats.Absorbs)
	w(s.stats.Fallbacks)

	nFull := 0
	for _, b := range s.bufs {
		if b.full {
			nFull++
		}
	}
	w(uint32(nFull))
	for i, b := range s.bufs {
		if b.full {
			w(uint32(i))
			w(b.weight)
			w(int32(b.level))
			w(b.data)
		}
	}
	if flags&flagFill != 0 {
		fillSlot := uint32(0)
		for i, b := range s.bufs {
			if b == s.fill {
				fillSlot = uint32(i)
			}
		}
		w(fillSlot)
		w(uint32(len(s.fill.data)))
		w(int32(s.fill.level))
		w(s.fill.data)
	} else {
		w(uint32(0))
		w(uint32(0))
		w(int32(0))
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores a sketch serialised by MarshalBinary. The
// receiver's previous state is discarded. Only the buffers the encoding
// carries get arrays.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	magic := make([]byte, 4)
	if _, err := r.Read(magic); err != nil || string(magic) != encMagic {
		return errors.New("core: bad sketch encoding magic")
	}
	var polByte, flags byte
	var err error
	if polByte, err = r.ReadByte(); err != nil {
		return fmt.Errorf("core: truncated sketch encoding: %w", err)
	}
	if flags, err = r.ReadByte(); err != nil {
		return fmt.Errorf("core: truncated sketch encoding: %w", err)
	}
	rd := func(v interface{}) error { return binary.Read(r, binary.LittleEndian, v) }

	var b32, k32 uint32
	if err := rd(&b32); err != nil {
		return fmt.Errorf("core: truncated sketch encoding: %w", err)
	}
	if err := rd(&k32); err != nil {
		return fmt.Errorf("core: truncated sketch encoding: %w", err)
	}
	if b32 < 2 || k32 < 1 || b32 > 1<<20 || k32 > 1<<28 {
		return fmt.Errorf("core: implausible sketch geometry b=%d k=%d", b32, k32)
	}
	restored, err := NewSketch(int(b32), int(k32), Policy(polByte))
	if err != nil {
		return err
	}
	restored.evenHigh = flags&flagEven != 0
	restored.noAlternation = flags&flagFrozen != 0
	if err := rd(&restored.count); err != nil {
		return fmt.Errorf("core: truncated sketch encoding: %w", err)
	}
	if err := rd(&restored.min); err != nil {
		return fmt.Errorf("core: truncated sketch encoding: %w", err)
	}
	if err := rd(&restored.max); err != nil {
		return fmt.Errorf("core: truncated sketch encoding: %w", err)
	}
	for _, p := range []*int64{
		&restored.stats.Leaves, &restored.stats.Collapses, &restored.stats.WeightSum,
		&restored.stats.MaxCollapseWeight, &restored.stats.OffsetSum,
		&restored.stats.Absorbs, &restored.stats.Fallbacks,
	} {
		if err := rd(p); err != nil {
			return fmt.Errorf("core: truncated sketch encoding: %w", err)
		}
		if *p < 0 {
			return fmt.Errorf("core: negative collapse statistic %d", *p)
		}
	}
	if restored.count < 0 {
		return fmt.Errorf("core: negative element count %d", restored.count)
	}
	if restored.count > 0 {
		if math.IsNaN(restored.min) || math.IsNaN(restored.max) || restored.min > restored.max {
			return fmt.Errorf("core: corrupt extremes min=%v max=%v", restored.min, restored.max)
		}
	}
	var nFull uint32
	if err := rd(&nFull); err != nil {
		return fmt.Errorf("core: truncated sketch encoding: %w", err)
	}
	if nFull > b32 {
		return fmt.Errorf("core: %d full buffers exceed b=%d", nFull, b32)
	}
	if restored.count == 0 && (nFull > 0 || flags&flagFill != 0) {
		return errors.New("core: buffers encoded for an empty sketch")
	}
	// held counts the elements the full buffers stand for. OUTPUT's rank
	// arithmetic needs it plus the fill length to equal count, so an
	// encoding may not certify elements it does not carry.
	var held int64
	prevSlot := -1
	for i := uint32(0); i < nFull; i++ {
		var slot uint32
		if err := rd(&slot); err != nil {
			return fmt.Errorf("core: truncated sketch encoding: %w", err)
		}
		// Slots are written in array order, so they must be strictly
		// increasing and in range; each full buffer goes back to the exact
		// position it occupied, which the collapse scheduling depends on.
		if slot >= b32 || int(slot) <= prevSlot {
			return fmt.Errorf("core: buffer slot %d out of order (b=%d)", slot, b32)
		}
		prevSlot = int(slot)
		buf := restored.bufs[slot]
		var level int32
		if err := rd(&buf.weight); err != nil {
			return fmt.Errorf("core: truncated sketch encoding: %w", err)
		}
		if err := rd(&level); err != nil {
			return fmt.Errorf("core: truncated sketch encoding: %w", err)
		}
		if buf.weight < 1 || buf.weight > (restored.count-held)/int64(k32) {
			return fmt.Errorf("core: buffer weight %d invalid for count %d", buf.weight, restored.count)
		}
		held += buf.weight * int64(k32)
		buf.level = int(level)
		if buf.data, err = readFloats(r, k32); err != nil {
			return err
		}
		// Buffers are sorted runs of stream elements: every value must lie
		// within the recorded extremes and the run must be non-decreasing.
		// Corruption of the float payload is caught here instead of
		// surfacing later as silently wrong answers.
		for j, v := range buf.data {
			if math.IsNaN(v) {
				return errors.New("core: NaN in encoded buffer")
			}
			if v < restored.min || v > restored.max {
				return fmt.Errorf("core: buffer value %v outside extremes [%v, %v]", v, restored.min, restored.max)
			}
			if j > 0 && v < buf.data[j-1] {
				return errors.New("core: encoded buffer run not sorted")
			}
		}
		buf.full = true
	}
	var fillSlot, fillLen uint32
	var fillLevel int32
	if err := rd(&fillSlot); err != nil {
		return fmt.Errorf("core: truncated sketch encoding: %w", err)
	}
	if err := rd(&fillLen); err != nil {
		return fmt.Errorf("core: truncated sketch encoding: %w", err)
	}
	if err := rd(&fillLevel); err != nil {
		return fmt.Errorf("core: truncated sketch encoding: %w", err)
	}
	if flags&flagFill == 0 {
		if fillSlot != 0 || fillLen != 0 || fillLevel != 0 {
			return errors.New("core: fill buffer fields set without fill flag")
		}
	} else {
		if fillLen == 0 || fillLen >= k32 || nFull >= b32 {
			return fmt.Errorf("core: invalid fill buffer length %d", fillLen)
		}
		if fillSlot >= b32 || restored.bufs[fillSlot].full {
			return fmt.Errorf("core: fill buffer slot %d invalid", fillSlot)
		}
		fill := restored.bufs[fillSlot]
		fill.level = int(fillLevel)
		// The partial buffer is restored at its own length; startFill grows
		// it to k when filling resumes.
		if fill.data, err = readFloats(r, fillLen); err != nil {
			return err
		}
		// The fill buffer is raw arrival order (sorted only on completion),
		// so only the range invariant applies here.
		for _, v := range fill.data {
			if math.IsNaN(v) {
				return errors.New("core: NaN in encoded buffer")
			}
			if v < restored.min || v > restored.max {
				return fmt.Errorf("core: fill value %v outside extremes [%v, %v]", v, restored.min, restored.max)
			}
		}
		restored.fill = fill
	}
	if r.Len() != 0 {
		return fmt.Errorf("core: %d trailing bytes in sketch encoding", r.Len())
	}
	if restored.count-held != int64(fillLen) {
		return fmt.Errorf("core: count %d differs from the %d elements the buffers hold", restored.count, held+int64(fillLen))
	}
	*s = *restored
	return nil
}

// readFloats reads n little-endian float64s, checking that the input holds
// them before allocating: a header may declare any geometry, so decode
// allocates what the input carries, not what it claims. The values are
// decoded through a stack chunk, so the result is the only allocation.
func readFloats(r *bytes.Reader, n uint32) ([]float64, error) {
	if int64(r.Len()) < int64(n)*8 {
		return nil, fmt.Errorf("core: truncated sketch encoding: %d values declared, %d bytes left", n, r.Len())
	}
	vs := make([]float64, n)
	var chunk [512]byte
	for i := 0; i < len(vs); {
		m := min(len(vs)-i, len(chunk)/8)
		// Cannot come up short: the length check above covers every value.
		if _, err := r.Read(chunk[:8*m]); err != nil {
			return nil, fmt.Errorf("core: truncated sketch encoding: %w", err)
		}
		for j := range m {
			vs[i+j] = math.Float64frombits(binary.LittleEndian.Uint64(chunk[8*j:]))
		}
		i += m
	}
	return vs, nil
}
