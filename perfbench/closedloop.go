package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mrl/internal/serve"
)

// Closed loops run at saturation: each connection sends its next batch as
// soon as its window allows. They measure throughput only; per-operation
// times feed driver spans in traced runs.

// ackMeter counts acknowledged batches and values inside the measurement
// window, and values per slice of it: the reported throughput is the
// median over slices, so one slow moment (a collection, a checkpoint)
// moves it less than it moves the mean.
type ackMeter struct {
	epoch    time.Time
	from, to int64 // ns since the run epoch
	values   atomic.Int64
	batches  atomic.Int64
	slices   [meterSlices]atomic.Int64
}

const meterSlices = 10

func (a *ackMeter) ack(n int) {
	if a == nil {
		return
	}
	if t := int64(time.Since(a.epoch)); t >= a.from && t < a.to {
		a.values.Add(int64(n))
		a.batches.Add(1)
		a.slices[(t-a.from)*meterSlices/(a.to-a.from)].Add(int64(n))
	}
}

// done is the stopAt of a closed loop measured by a: stop at the end of
// its window.
func (a *ackMeter) done(int) bool { return int64(time.Since(a.epoch)) >= a.to }

// rate is the median over slices of acknowledged values per second.
func (a *ackMeter) rate() float64 {
	per := float64(a.to-a.from) / meterSlices / 1e9
	xs := make([]float64, meterSlices)
	for i := range a.slices {
		xs[i] = float64(a.slices[i].Load()) / per
	}
	return median(xs)
}

// stopAt reports whether the loop should stop sending.
type stopAt func(sent int) bool

// runBinClient streams m's values through serve.BinClient (its default
// 32-batch window) in batches of size until stop says so, then flushes.
func runBinClient(addr string, sid uint64, m *metric, size int, stop stopAt, meter *ackMeter, tr *tracer) error {
	onAck := func(n int, lat time.Duration) {
		meter.ack(n)
		if tr != nil {
			end := tr.now()
			tr.add(span{ID: tr.id(), Name: "driver.bin", Start: end - int64(lat), End: end})
		}
	}
	c, err := serve.NewBinClient(serve.BinClientOptions{Addr: addr, Metric: m.name, Backend: m.backend, SessionID: sid, OnAck: onAck})
	if err != nil {
		return err
	}
	pg := m.gen.(*permGen)
	first := len(m.batches)
	for sent := 0; !stop(sent); sent++ {
		pos := m.take(size)
		m.batches = append(m.batches, batch{pos: pos, size: int32(size)})
		if err := c.Send(pg.slice(m.idx, pos, size)); err != nil {
			c.Close()
			return err
		}
	}
	if err := c.Close(); err != nil {
		return err
	}
	st := c.Stats()
	if st.RejectedBatches != 0 || st.DroppedBatches != 0 || int(st.AckedBatches) != len(m.batches)-first {
		return fmt.Errorf("%s: %d batches sent, %d acked, %d rejected, %d dropped",
			m.name, len(m.batches)-first, st.AckedBatches, st.RejectedBatches, st.DroppedBatches)
	}
	for i := first; i < len(m.batches); i++ {
		m.batches[i].ok = true
	}
	return nil
}

// runBinWindow streams batches round-robin over the metrics ids on one
// sessioned MRLB v2 connection with at most window batches unacknowledged,
// reading acks as they arrive. Frames are encoded as they are sent.
func runBinWindow(addr string, sid uint64, ms []*metric, ids []int, size, window int, stop stopAt, meter *ackMeter, tr *tracer) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := conn.Write(binStream(sid, ms, ids)); err != nil {
		return err
	}
	if _, err := readSessionAck(conn); err != nil {
		return err
	}
	type ref struct{ m, idx int }
	var (
		order   []ref // batches in send order; acks arrive in this order
		acked   int
		readErr error
		wg      sync.WaitGroup
	)
	// queue carries each in-flight batch's send time to the reader; its
	// capacity is the window.
	queue := make(chan int64, window)
	wg.Add(1)
	go func() {
		defer wg.Done()
		br := bufio.NewReaderSize(conn, 64<<10)
		for sentAt := range queue {
			ack, err := serve.ReadBinAck(br)
			if err == nil && !ack.OK() {
				err = fmt.Errorf("batch refused: %s", ack.Msg)
			}
			if err != nil {
				readErr = err
				_ = conn.Close()
				for range queue {
				}
				return
			}
			acked++
			meter.ack(int(ack.Accepted))
			if tr != nil {
				tr.add(span{ID: tr.id(), Name: "driver.bin", Start: sentAt, End: tr.now()})
			}
		}
	}()
	var (
		seq     uint64
		frame   []byte
		vals    = make([]float64, size)
		sendErr error
	)
	for sent := 0; !stop(sent); sent++ {
		id := ids[sent%len(ids)]
		m := ms[id]
		pos := m.take(size)
		m.gen.fill(m.idx, pos, vals)
		m.batches = append(m.batches, batch{pos: pos, size: int32(size)})
		order = append(order, ref{id, len(m.batches) - 1})
		seq++
		frame = serve.AppendBatchSeqFrame(frame[:0], uint32(id), seq, vals, nil)
		var sentAt int64
		if tr != nil {
			sentAt = tr.now()
		}
		queue <- sentAt
		if _, err := conn.Write(frame); err != nil {
			sendErr = err
			break
		}
	}
	close(queue)
	wg.Wait()
	for _, r := range order[:acked] {
		ms[r.m].batches[r.idx].ok = true
	}
	return errors.Join(sendErr, readErr)
}

// runBodyLoop posts MRLB bodies of perBody batches to POST /ingest/bin,
// one request at a time on one keep-alive connection, round-robin over
// the metrics ids. Bodies are encoded as they are sent.
func runBodyLoop(base string, sid uint64, ms []*metric, ids []int, perBody, size int, stop stopAt, meter *ackMeter, tr *tracer) error {
	client := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	type ref struct{ m, idx int }
	var seq uint64
	vals := make([]float64, size)
	next := 0
	for sent := 0; !stop(sent); sent++ {
		body := binStream(sid, nil, nil)
		refs := make([]ref, 0, perBody)
		interned := map[int]bool{}
		for k := 0; k < perBody; k++ {
			id := ids[next%len(ids)]
			next++
			m := ms[id]
			if !interned[id] {
				body = serve.AppendDictFrame(body, uint32(id), m.name, m.backend)
				interned[id] = true
			}
			pos := m.take(size)
			m.gen.fill(m.idx, pos, vals)
			m.batches = append(m.batches, batch{pos: pos, size: int32(size)})
			refs = append(refs, ref{id, len(m.batches) - 1})
			seq++
			body = serve.AppendBatchSeqFrame(body, uint32(id), seq, vals, nil)
		}
		req, err := http.NewRequest(http.MethodPost, base+"/ingest/bin", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		var id uint64
		var start int64
		if tr != nil {
			id, start = tr.id(), tr.now()
			req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST /ingest/bin: %s", resp.Status)
		}
		if tr != nil {
			tr.add(span{ID: id, Name: "driver.body", Start: start, End: tr.now()})
		}
		for _, r := range refs {
			ms[r.m].batches[r.idx].ok = true
		}
		meter.ack(perBody * size)
	}
	return nil
}
