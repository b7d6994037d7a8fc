package main

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/pipeline"
	"repro/internal/shard"
)

// workerSet is shard-warm's pool of in-process shard.Server workers on
// loopback TCP, each with a fresh artifact cache over the shared store.
type workerSet struct {
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	lns      []net.Listener
	caches   []*pipeline.ArtifactCache
	conns    []*shard.WorkerConn
	bytesIn  atomic.Int64 // read by the workers: job frames
	bytesOut atomic.Int64 // written by the workers: hellos, progress and results
	jobs     atomic.Int64 // shard jobs the workers accepted
}

// jobAccepted is the format of the line a shard.Server logs when it
// accepts a job.
const jobAccepted = "%s: shard %d: kind %d, %d units"

func startWorkers(ctx context.Context, store string, n int) (*workerSet, error) {
	ctx, cancel := context.WithCancel(ctx)
	ws := &workerSet{cancel: cancel}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			ws.close()
			return nil, err
		}
		cache := pipeline.NewCache()
		if err := cache.AttachDir(store); err != nil {
			ln.Close()
			ws.close()
			return nil, err
		}
		ws.lns = append(ws.lns, ln)
		ws.caches = append(ws.caches, cache)
		srv := shard.NewServer(shard.ServerConfig{
			Node:    fmt.Sprintf("w%d", i),
			Workers: 1,
			Cache:   cache,
			Log: func(format string, _ ...any) {
				if strings.HasPrefix(format, jobAccepted) {
					ws.jobs.Add(1)
				}
			},
		})
		ws.wg.Add(1)
		go func() {
			defer ws.wg.Done()
			// Serve returns ctx's error once close cancels it; an accept
			// failure before then surfaces as the sweep's dial or job error.
			_ = srv.Serve(ctx, &countingListener{Listener: ln, in: &ws.bytesIn, out: &ws.bytesOut})
		}()
	}
	return ws, nil
}

func (ws *workerSet) addrs() []string {
	out := make([]string, len(ws.lns))
	for i, ln := range ws.lns {
		out[i] = ln.Addr().String()
	}
	return out
}

// close hangs up the coordinator's connections, stops the servers and
// waits until every server goroutine has returned.
func (ws *workerSet) close() {
	for _, c := range ws.conns {
		c.Close()
	}
	ws.conns = nil
	ws.cancel()
	ws.wg.Wait()
}

// countingListener counts the bytes its accepted connections read and
// write.
type countingListener struct {
	net.Listener
	in, out *atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, in: l.in, out: l.out}, nil
}

type countingConn struct {
	net.Conn
	in, out *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}
