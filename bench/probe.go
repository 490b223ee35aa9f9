package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/gf256"
	"repro/internal/rs"
	"repro/internal/soda"
)

// The layer probes call each layer's public functions directly, one
// goroutine, at the workload's value and shard size. They price a layer
// in isolation; the traced run says how much of an op it is.

// timeCall reports the median over five rounds of fn's time per call,
// and its heap allocations per call over all rounds. Each round lasts
// about a fifth of budget.
func timeCall(budget time.Duration, fn func()) (nsPerCall, allocsPerCall float64) {
	fn() // first-call set-up is not the call's cost
	start := time.Now()
	fn()
	batch := 1
	if once := time.Since(start); once < 10*time.Microsecond {
		batch = 256 // keep clock reads out of a short call's time
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var rounds []float64
	calls := 0
	for range 5 {
		n := 0
		start := time.Now()
		for time.Since(start) < budget/5 {
			for range batch {
				fn()
			}
			n += batch
		}
		rounds = append(rounds, float64(time.Since(start))/float64(n))
		calls += n
	}
	runtime.ReadMemStats(&m1)
	return median(rounds), float64(m1.Mallocs-m0.Mallocs) / float64(calls)
}

type layerProbe struct {
	valueSize int
	budget    time.Duration
	waldir    string
	names     []string // the key population of the server probes
	out       map[string]float64
}

func shardSize(valueSize int) int { return (valueSize + kData - 1) / kData }

// probeLayers fills out with every direct-call metric.
func probeLayers(valueSize int, budget time.Duration, waldir string) (map[string]float64, error) {
	p := &layerProbe{valueSize: valueSize, budget: budget, waldir: waldir, out: map[string]float64{}}
	// Enough keys that a put does not always hit the register it just wrote.
	p.names = make([]string, 1024)
	for i := range p.names {
		p.names[i] = fmt.Sprintf("p%04d", i)
	}
	for _, step := range []func() error{p.kernel, p.rs, p.codec, p.server, p.wal} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

func (p *layerProbe) shards(n int) [][]byte {
	s := shardSize(p.valueSize)
	block := randomBlock(n*s, 7, 0)
	out := make([][]byte, n)
	for i := range out {
		out[i] = block[i*s : (i+1)*s]
	}
	return out
}

func (p *layerProbe) kernel() error {
	in := p.shards(kData + 1)
	coeffs := []byte{2, 3, 7}
	ns, _ := timeCall(p.budget, func() { gf256.MulAddMulti(coeffs, in[:kData], in[kData]) })
	p.out["gf256_muladd_gb_s"] = float64(kData*shardSize(p.valueSize)) / ns // input bytes per ns
	return nil
}

func (p *layerProbe) rs() error {
	enc, err := rs.New(nServers, kData)
	if err != nil {
		return err
	}
	defer enc.Close()
	sh := p.shards(nServers)
	var encAllocs, recAllocs float64
	p.out["rs_encode_ns"], encAllocs = timeCall(p.budget, func() { err = enc.EncodeInto(sh) })
	if err != nil {
		return fmt.Errorf("rs encode: %w", err)
	}
	lost := sh[0]
	p.out["rs_reconstruct_ns"], recAllocs = timeCall(p.budget, func() {
		sh[0] = lost[:0]
		err = enc.ReconstructInto(sh)
	})
	if err != nil {
		return fmt.Errorf("rs reconstruct: %w", err)
	}
	p.out["rs_allocs_per_op"] = encAllocs + recAllocs
	return nil
}

func (p *layerProbe) codec() error {
	codec, err := soda.NewCodec(nServers, kData)
	if err != nil {
		return err
	}
	value := randomBlock(p.valueSize, 7, 1)
	var elems [][]byte
	var encAllocs, decAllocs float64
	p.out["codec_encode_ns"], encAllocs = timeCall(p.budget, func() { elems, err = codec.EncodeValue(value) })
	if err != nil {
		return fmt.Errorf("codec encode: %w", err)
	}
	p.out["codec_decode_ns"], decAllocs = timeCall(p.budget, func() { _, err = codec.DecodeValue(elems, len(value)) })
	if err != nil {
		return fmt.Errorf("codec decode: %w", err)
	}
	p.out["codec_allocs_per_op"] = encAllocs + decAllocs
	return nil
}

// putLoop returns a closure that applies the next put: every tag is
// new, so each call stores. The server keeps the element it is handed
// and never writes to it, so one buffer serves every call.
func (p *layerProbe) putLoop(srv *soda.Server) func() {
	elem := p.shards(1)[0]
	var ts uint64
	return func() {
		ts++
		srv.PutData(p.names[ts%uint64(len(p.names))], soda.Tag{TS: ts, Writer: "probe"}, elem, p.valueSize)
	}
}

func (p *layerProbe) server() error {
	srv := soda.NewServer(0)
	p.out["server_put_ns"], _ = timeCall(p.budget, p.putLoop(srv))
	var i int
	p.out["server_gettag_ns"], _ = timeCall(p.budget, func() {
		i++
		srv.GetTag(p.names[i%len(p.names)])
	})
	sink := func(soda.Delivery) {}
	p.out["server_register_ns"], _ = timeCall(p.budget, func() {
		i++
		srv.Register(p.names[i%len(p.names)], "probe-reader", sink)
		srv.Unregister(p.names[i%len(p.names)], "probe-reader")
	})
	return nil
}

// wal prices a durable put against the memory put just measured, then
// counts the log bytes a put leaves when no snapshot truncates them.
func (p *layerProbe) wal() error {
	if err := os.MkdirAll(p.waldir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(p.waldir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	srv, err := soda.NewDurableServer(0, filepath.Join(dir, "timed"), soda.WithFsync(soda.FsyncAlways))
	if err != nil {
		return err
	}
	durable, _ := timeCall(p.budget, p.putLoop(srv))
	if err := srv.Close(); err != nil {
		return err
	}
	p.out["wal_put_ns"] = durable - p.out["server_put_ns"]

	const puts = 64
	logDir := filepath.Join(dir, "counted")
	srv, err = soda.NewDurableServer(0, logDir, soda.WithFsync(soda.FsyncAlways), soda.WithSnapshotThreshold(1<<50))
	if err != nil {
		return err
	}
	put := p.putLoop(srv)
	for range puts {
		put()
	}
	if err := srv.Close(); err != nil {
		return err
	}
	var logged int64
	err = filepath.WalkDir(logDir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			logged += info.Size()
		}
		return err
	})
	// Every one of the n servers logs one element per write.
	p.out["wal_bytes_per_user_byte"] = float64(logged) / puts * nServers / float64(p.valueSize)
	return err
}
