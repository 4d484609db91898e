package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"apan/internal/tgraph"
)

// The checkpoint reader and writer this package shipped before the byte
// codec, kept as the differential reference: field by field through
// encoding/binary, reading and writing the live stores. The writer must be
// called on a quiescent model (the tests' models are). The reader keeps its
// original order — parameters published and stores reset before the body is
// read — which is the behaviour TestRefusedCheckpointLeavesModelUntouched
// exists to rule out in the real loader.

func refWrite(w io.Writer, vals ...any) {
	for _, v := range vals {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
}

func refSaveCheckpoint(m *Model, out io.Writer) {
	w := bufio.NewWriter(out)
	io.WriteString(w, ckptMagic)
	refWrite(w, uint32(ckptVersion))
	params := m.CurrentParams()
	io.WriteString(w, "APNN")
	refWrite(w, uint32(1), uint32(params.NumTensors()))
	for i := 0; i < params.NumTensors(); i++ {
		v := params.Value(i)
		refWrite(w, uint32(v.Rows), uint32(v.Cols), v.Data)
	}

	numNodes, dim, slots := m.Cfg.NumNodes, m.Cfg.EdgeDim, m.Cfg.Slots
	refWrite(w, uint32(numNodes), uint32(dim))
	zrow := make([]float32, dim)
	for n := int32(0); n < int32(numNodes); n++ {
		m.st.CopyTo(n, zrow)
		touched := uint8(0)
		if m.st.Touched(n) {
			touched = 1
		}
		refWrite(w, zrow, m.st.LastTime(n), touched)
	}
	buf, ts := make([]float32, slots*dim), make([]float64, slots)
	for n := int32(0); n < int32(numNodes); n++ {
		c := m.st.ReadSorted(n, buf, ts)
		refWrite(w, uint32(c))
		for i := 0; i < c; i++ {
			refWrite(w, ts[i], buf[i*dim:(i+1)*dim])
		}
	}
	events := m.db.G.EventLog()[:m.db.G.NumEvents()]
	refWrite(w, uint64(len(events)))
	for i := range events {
		ev := &events[i]
		refWrite(w, ev.Src, ev.Dst, ev.Time, int8(ev.Label), uint32(len(ev.Feat)), ev.Feat)
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
}

func refLoadCheckpoint(m *Model, in io.Reader) error {
	r := bufio.NewReader(in)
	le := binary.LittleEndian
	read := func(vals ...any) error {
		for _, v := range vals {
			if err := binary.Read(r, le, v); err != nil {
				return fmt.Errorf("reference load: %w", err)
			}
		}
		return nil
	}
	magic := make([]byte, 4)
	var version uint32
	if err := read(magic, &version); err != nil {
		return err
	}
	if string(magic) != ckptMagic || version != ckptVersion {
		return fmt.Errorf("reference load: magic %q version %d", magic, version)
	}
	pmagic := make([]byte, 4)
	var pversion, count uint32
	if err := read(pmagic, &pversion, &count); err != nil {
		return err
	}
	own := m.Params()
	if string(pmagic) != "APNN" || pversion != 1 || int(count) != len(own) {
		return fmt.Errorf("reference load: parameter header %q %d %d", pmagic, pversion, count)
	}
	for i, p := range own {
		var rows, cols uint32
		if err := read(&rows, &cols); err != nil {
			return err
		}
		if int(rows) != p.W.Rows || int(cols) != p.W.Cols {
			return fmt.Errorf("reference load: param %d is %dx%d in the file", i, rows, cols)
		}
		if err := read(p.W.Data); err != nil {
			return err
		}
	}
	m.publishOwn()

	var numNodes, dim uint32
	if err := read(&numNodes, &dim); err != nil {
		return err
	}
	if int(dim) != m.Cfg.EdgeDim {
		return fmt.Errorf("reference load: dim %d, model %d", dim, m.Cfg.EdgeDim)
	}
	m.applyMu.Lock()
	defer m.applyMu.Unlock()
	m.ensureNodesLocked(int(numNodes))
	m.st.Reset()
	m.resetEvictor()
	z := make([]float32, dim)
	for n := int32(0); n < int32(numNodes); n++ {
		var lastT float64
		var touched uint8
		if err := read(z, &lastT, &touched); err != nil {
			return err
		}
		if touched == 1 {
			m.st.Set(n, z, lastT)
		}
	}
	for n := int32(0); n < int32(numNodes); n++ {
		var c uint32
		if err := read(&c); err != nil {
			return err
		}
		if int(c) > m.Cfg.Slots {
			return fmt.Errorf("reference load: node %d has %d mails", n, c)
		}
		for i := 0; i < int(c); i++ {
			var ts float64
			if err := read(&ts, z); err != nil {
				return err
			}
			m.st.Deliver(n, z, ts)
		}
	}
	var numEvents uint64
	if err := read(&numEvents); err != nil {
		return err
	}
	g := m.db.G
	g.Reset(m.Cfg.NumNodes, nil)
	for i := uint64(0); i < numEvents; i++ {
		var ev tgraph.Event
		var featLen uint32
		if err := read(&ev.Src, &ev.Dst, &ev.Time, &ev.Label, &featLen); err != nil {
			return err
		}
		if featLen > 1<<20 {
			return fmt.Errorf("reference load: feature length %d", featLen)
		}
		ev.Feat = make([]float32, featLen)
		if err := read(ev.Feat); err != nil {
			return err
		}
		g.AddEvent(ev)
	}
	return nil
}
