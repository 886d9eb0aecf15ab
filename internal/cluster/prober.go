package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// Health probing and replica promotion. The prober is the only writer
// of shard.downSince and the only caller of promote, so the promotion
// decision needs no extra locking: request-path goroutines only read
// the atomics.

// Start launches the background health-probe loop. It returns
// immediately; the loop stops when ctx is cancelled. Each tick probes
// every shard's active URL concurrently, feeds the breaker, and —
// when a shard with a configured replica has been continuously dead
// for PromoteAfter — promotes the replica and repoints the shard.
func (c *Coordinator) Start(ctx context.Context) {
	go func() {
		ticker := time.NewTicker(c.cfg.ProbeInterval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				c.probeAll(ctx)
			}
		}
	}()
}

func (c *Coordinator) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, sh := range c.shards {
		sh := sh
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.probeShard(ctx, sh)
		}()
	}
	wg.Wait()
}

// probeShard checks one shard's /readyz. A ready shard resets the
// breaker and the outage clock; a failed probe counts toward the
// breaker threshold and, once the outage outlasts PromoteAfter,
// triggers promotion.
func (c *Coordinator) probeShard(ctx context.Context, sh *shard) {
	err := c.probeOnce(ctx, sh.activeURL())
	if err == nil {
		c.metrics.observeProbe(sh.name, true)
		sh.downSince.Store(0)
		sh.breaker.Success()
		return
	}
	if ctx.Err() != nil {
		return // shutdown, not a shard failure
	}
	c.metrics.observeProbe(sh.name, false)
	sh.breaker.Failure()
	now := time.Now().UnixNano()
	if !sh.downSince.CompareAndSwap(0, now) {
		// Outage already in progress; check the promotion clock.
		down := time.Duration(now - sh.downSince.Load())
		if down >= c.cfg.PromoteAfter && sh.replica != "" && !sh.promoted.Load() {
			c.promote(ctx, sh)
		}
	}
}

// probeOnce GETs url/readyz with the probe interval as its deadline
// (a probe that cannot finish before the next tick is a failure).
func (c *Coordinator) probeOnce(ctx context.Context, url string) error {
	pctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, url+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("probe: HTTP %d", resp.StatusCode)
	}
	return nil
}

// promote asks the shard's replica to stop following and start
// serving, then repoints the shard at it. Promotion is one-way and
// once-only: a primary that comes back after its replica took over
// would serve a stale, diverging image.
func (c *Coordinator) promote(ctx context.Context, sh *shard) {
	pctx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodPost, sh.replica+"/promote", nil)
	if err != nil {
		c.Logf("promote %s: %v", sh.name, err)
		return
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		c.Logf("promote %s: replica unreachable: %v", sh.name, err)
		return
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		c.Logf("promote %s: replica answered HTTP %d: %s", sh.name, resp.StatusCode, body)
		return
	}
	replica := sh.replica
	sh.active.Store(&replica)
	sh.promoted.Store(true)
	sh.downSince.Store(0)
	// The breaker's failure history belongs to the dead primary; the
	// freshly promoted replica starts with a clean slate.
	sh.breaker.ForceClosed()
	c.metrics.observePromotion()
	c.Logf("promoted shard %s: %s -> %s", sh.name, sh.primary, replica)
}
