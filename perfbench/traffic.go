package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mrl/internal/serve"
)

// metric is one served metric: its stream and what the driver has sent
// into it, in stream order.
type metric struct {
	name    string
	backend string // "" keeps the server default (mrl)
	gen     valueGen
	idx     int   // generator index
	next    int64 // next stream position to send
	batches []batch
	base    int // leading batches that make up the prepared state
}

type batch struct {
	pos         int64
	size        int32
	ok          bool
	sent, acked int64 // ns since the run epoch; open-loop batches only
}

func (m *metric) take(n int) int64 {
	pos := m.next
	m.next += int64(n)
	return pos
}

func (m *metric) values(pos int64, n int) []float64 {
	dst := make([]float64, n)
	m.gen.fill(m.idx, pos, dst)
	return dst
}

// opKind is what one open-loop operation is.
type opKind uint8

const (
	opBin   opKind = iota // one MRLB batch frame on the TCP stream
	opJSON                // POST /ingest
	opQuery               // GET /quantile
	opBody                // POST /ingest/bin with several batches
)

// part is one batch an operation carries.
type part struct {
	m    int
	pos  int64
	size int32
}

// op is one scheduled operation of an open loop. Its wire bytes are
// encoded before the clock starts.
type op struct {
	kind     opKind
	due      int64 // ns after the phase start
	parts    []part
	metric   int // queried metric
	phiset   int
	windowed bool
	wire     []byte
	span     uint64

	sent, done int64 // ns since the run epoch; 0 = never
	failed     bool
	body       []byte // query response body
}

// lane is one driver connection and the operations it carries, in due
// order.
type lane struct {
	addr  string
	http  bool
	hello []byte // binary stream prologue, session and dict frames
	ops   []*op
}

const lateAfter = int64(time.Millisecond)

// runLanes drives every lane open-loop: a sender writes each operation at
// its due time and a separate reader timestamps each answer as it
// arrives. start is the phase start on the run clock.
func runLanes(lanes []*lane, epoch time.Time, start int64, tail time.Duration) error {
	var wg sync.WaitGroup
	errs := make([]error, len(lanes))
	conns := make([]net.Conn, len(lanes))
	for i, ln := range lanes {
		conn, err := dialLane(ln)
		if err != nil {
			for _, c := range conns[:i] {
				c.Close()
			}
			return err
		}
		conns[i] = conn
	}
	for i, ln := range lanes {
		conn := conns[i]
		last := time.Duration(0)
		if n := len(ln.ops); n > 0 {
			last = time.Duration(ln.ops[n-1].due)
		}
		_ = conn.SetReadDeadline(epoch.Add(time.Duration(start) + last + tail))
		wg.Add(2)
		i, ln := i, ln
		go func() {
			defer wg.Done()
			sendLane(conn, ln, epoch, start)
		}()
		go func() {
			defer wg.Done()
			defer conn.Close()
			errs[i] = readLane(conn, ln, epoch)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func dialLane(ln *lane) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", ln.addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if ln.hello != nil {
		if _, err := conn.Write(ln.hello); err != nil {
			conn.Close()
			return nil, err
		}
		if _, err := readSessionAck(conn); err != nil {
			conn.Close()
			return nil, err
		}
	}
	return conn, nil
}

func sendLane(conn net.Conn, ln *lane, epoch time.Time, start int64) {
	// The runtime's timers wake a sleeping goroutine up to a millisecond
	// late under load; a locked thread in nanosleep keeps the schedule to
	// the kernel's timer slack.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for _, o := range ln.ops {
		if d := time.Until(epoch.Add(time.Duration(start + o.due))); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
			}
		}
		o.sent = int64(time.Since(epoch))
		if _, err := conn.Write(o.wire); err != nil {
			return // the reader marks what never came back
		}
	}
}

func readLane(conn net.Conn, ln *lane, epoch time.Time) error {
	br := bufio.NewReaderSize(conn, 64<<10)
	for i, o := range ln.ops {
		var err error
		if ln.http {
			err = readHTTPAnswer(br, o)
		} else {
			var ack serve.BinAck
			ack, err = serve.ReadBinAck(br)
			if err == nil && !ack.OK() {
				o.failed = true
			}
		}
		if err != nil {
			for _, rest := range ln.ops[i:] {
				rest.failed = true
			}
			return fmt.Errorf("%s: answer %d of %d: %w", ln.addr, i, len(ln.ops), err)
		}
		o.done = int64(time.Since(epoch))
	}
	return nil
}

func readHTTPAnswer(br *bufio.Reader, o *op) error {
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		o.failed = true
	}
	if o.kind == opQuery || o.failed {
		o.body = body
	}
	return nil
}

// latencies returns each measured operation's time from due to answer, in
// ms; failed operations are +Inf.
func latencies(ops []*op, kind opKind, start, from, to int64) []float64 {
	var out []float64
	for _, o := range ops {
		if o.kind != kind || o.due < from || o.due >= to {
			continue
		}
		if o.failed || o.done == 0 {
			out = append(out, inf)
			continue
		}
		out = append(out, float64(o.done-(start+o.due))/1e6)
	}
	return out
}

// httpRequest encodes one HTTP/1.1 request for a pipelined connection.
func httpRequest(a *arena, method, target string, span uint64, contentType string, body []byte) ([]byte, error) {
	var hdr strings.Builder
	fmt.Fprintf(&hdr, "%s %s HTTP/1.1\r\nHost: perfbench\r\n", method, target)
	if span != 0 {
		fmt.Fprintf(&hdr, "%s: %d\r\n", spanHeader, span)
	}
	if body != nil {
		fmt.Fprintf(&hdr, "Content-Type: %s\r\nContent-Length: %d\r\n", contentType, len(body))
	}
	hdr.WriteString("\r\n")
	out, err := a.alloc(hdr.Len() + len(body))
	if err != nil {
		return nil, err
	}
	n := copy(out, hdr.String())
	copy(out[n:], body)
	return out, nil
}

// jsonIngestBody is one POST /ingest object.
func jsonIngestBody(name, backend string, vs []float64) []byte {
	var b strings.Builder
	b.WriteString(`{"metric":`)
	b.WriteString(strconv.Quote(name))
	if backend != "" {
		b.WriteString(`,"backend":`)
		b.WriteString(strconv.Quote(backend))
	}
	b.WriteString(`,"values":[`)
	for i, v := range vs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(int64(v), 10))
	}
	b.WriteString("]}")
	return []byte(b.String())
}

// queryAnswer is a /quantile reply from a node or the coordinator.
type queryAnswer struct {
	Values     []float64 `json:"values"`
	Count      int64     `json:"count"`
	ErrorBound float64   `json:"errorBound"`
	Epsilon    float64   `json:"epsilon"`
	Window     bool      `json:"window"`
	Nodes      int       `json:"nodes"`
	Height     int       `json:"height"`
	Partial    bool      `json:"partial"`
}

func parseAnswer(body []byte) (queryAnswer, error) {
	var a queryAnswer
	err := json.Unmarshal(body, &a)
	return a, err
}

// binStream encodes the start of a sessioned MRLB v2 stream: prologue,
// session frame and one dict frame per metric, interned under its index.
func binStream(sid uint64, ms []*metric, ids []int) []byte {
	b := serve.AppendSessionFrame(serve.AppendBinPrologueV2(nil), sid)
	for _, i := range ids {
		b = serve.AppendDictFrame(b, uint32(i), ms[i].name, ms[i].backend)
	}
	return b
}
