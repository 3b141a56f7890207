package main

import (
	"bytes"
	"compress/flate"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The host this benchmark runs on is a few cores of a shared machine,
// and its speed drifts by a quarter and more over minutes as the
// neighbours' load changes: every wall and CPU time of a job moves with
// it, the plain baseline's as much as the assured run's. So the
// benchmark also times a fixed reference task, built only from its own
// code and the standard library, between its jobs, and reports host
// times scaled to a host on which that task takes refNominal:
//
//	reported = measured x refNominal / median(reference times in the run)
//
// Wall times are scaled by the task's wall time and CPU times by its
// CPU time: when the host takes a core away, a job's wall time grows
// but its CPU time does not, and the task's do the same. No change to the program can move the reference, so a change shows in
// the scaled times as it would on a host of steady speed.
const (
	// refNominal is about the reference task's time on a 2-vCPU Xeon @
	// 2.70GHz (16 to 38 ms as that host drifts); it only sets the scale
	// of the reported times.
	refNominal = 25 * time.Millisecond
	refLines   = 20_000
	refReps    = 2
	// refIO is how many bytes the task writes to its file and reads
	// back, in refBlock pieces.
	refIO    = 16 << 20
	refBlock = 4 << 20
)

// reference is the reference task: split, count, compress, decompress
// and sort a fixed set of lines, then write a file and read it back —
// the mix of work a job does, spill I/O included. After the first call
// it allocates nothing, so the collector's pacing, which the program
// can change, does not move it.
type reference struct {
	lines   []string
	counts  map[string]int
	keys    []string
	buf, zb bytes.Buffer
	zw      *flate.Writer
	zr      io.ReadCloser
	out     []byte
	file    *os.File
	block   []byte
	// wallNs and cpuNs are the task's times, one per measure.
	wallNs, cpuNs []int64
}

// newReference builds the task; its file goes in dir.
func newReference(dir string) (*reference, error) {
	file, err := os.CreateTemp(dir, "reference-*")
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(1))
	ref := &reference{counts: make(map[string]int), file: file, block: make([]byte, refBlock)}
	for i := 0; i < refLines; i++ {
		ref.lines = append(ref.lines, "k"+strconv.Itoa(r.Intn(3000))+"\t"+strconv.Itoa(r.Intn(1e6))+"\tv"+strconv.Itoa(i))
	}
	ref.zw, _ = flate.NewWriter(&ref.zb, flate.BestSpeed)
	ref.zr = flate.NewReader(&ref.zb)
	if err := ref.work(); err != nil {
		ref.close()
		return nil, err
	}
	return ref, nil
}

func (ref *reference) close() {
	ref.file.Close()
	os.Remove(ref.file.Name())
}

// measure times the reference task once, from a collected heap.
func (ref *reference) measure() error {
	runtime.GC()
	cpu0 := cpuNs()
	start := time.Now()
	for i := 0; i < refReps; i++ {
		if err := ref.work(); err != nil {
			return err
		}
	}
	ref.wallNs = append(ref.wallNs, int64(time.Since(start))/refReps)
	ref.cpuNs = append(ref.cpuNs, (cpuNs()-cpu0)/refReps)
	return nil
}

func (ref *reference) work() error {
	clear(ref.counts)
	ref.buf.Reset()
	for _, l := range ref.lines {
		k, rest, _ := strings.Cut(l, "\t")
		ref.counts[k] += len(rest)
		ref.buf.WriteString(l)
		ref.buf.WriteByte('\n')
	}
	ref.zb.Reset()
	ref.zw.Reset(&ref.zb)
	ref.zw.Write(ref.buf.Bytes())
	ref.zw.Close()
	ref.zr.(flate.Resetter).Reset(&ref.zb, nil)
	ref.out = ref.out[:cap(ref.out)]
	if len(ref.out) < ref.buf.Len() {
		ref.out = make([]byte, ref.buf.Len())
	}
	io.ReadFull(ref.zr, ref.out[:ref.buf.Len()])
	ref.keys = ref.keys[:0]
	for k := range ref.counts {
		ref.keys = append(ref.keys, k)
	}
	sort.Strings(ref.keys)
	for off := int64(0); off < refIO; off += refBlock {
		if _, err := ref.file.WriteAt(ref.block, off); err != nil {
			return err
		}
	}
	for off := int64(0); off < refIO; off += refBlock {
		if _, err := ref.file.ReadAt(ref.block, off); err != nil {
			return err
		}
	}
	return nil
}

// scale converts a wall time measured in this run to the reference
// host's.
func (ref *reference) scale() float64 {
	return float64(refNominal) / medianInt(ref.wallNs)
}

// scaleCPU converts a CPU time measured in this run to the reference
// host's.
func (ref *reference) scaleCPU() float64 {
	return float64(refNominal) / medianInt(ref.cpuNs)
}
