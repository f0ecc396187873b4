package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"time"

	"nocalert/internal/campaign"
	"nocalert/internal/obs"
	"nocalert/internal/server"
)

// fleet is a set of in-process nocalertd daemons: real server.Server
// values behind real HTTP listeners, as coordinator.Run's workers.
type fleet struct {
	srvs []*server.Server
	tss  []*httptest.Server
}

// startFleet starts n daemons with state directories under dir. Resumed
// verification is off: every repetition starts from empty state.
func startFleet(dir string, n, campaignWorkers int, tracer *obs.Tracer) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < n; i++ {
		s, err := server.New(server.Config{
			Dir:             filepath.Join(dir, fmt.Sprintf("daemon%d", i)),
			CampaignWorkers: campaignWorkers,
			VerifyResumed:   -1,
			Tracer:          tracer,
		})
		if err != nil {
			f.stop()
			return nil, err
		}
		f.srvs = append(f.srvs, s)
		f.tss = append(f.tss, httptest.NewServer(s.Handler()))
	}
	return f, nil
}

func (f *fleet) urls() []string {
	u := make([]string, len(f.tss))
	for i, ts := range f.tss {
		u[i] = ts.URL
	}
	return u
}

// stop closes the listeners and drains the daemons.
func (f *fleet) stop() {
	for _, ts := range f.tss {
		ts.CloseClientConnections()
		ts.Close()
	}
	for _, s := range f.srvs {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = s.Stop(ctx) // a drain timeout only delays process exit
		cancel()
	}
}

// counts sums the campaign engine's own counters over the daemons'
// registries (the merged report does not carry them).
func (f *fleet) counts() counts {
	var c counts
	for _, s := range f.srvs {
		reg := s.Registry()
		c.FastPath += reg.Counter(campaign.MetricFastPathHits).Value()
		c.Reconverged += reg.Counter(campaign.MetricReconvergenceHits).Value()
		c.FullSim += reg.Counter(campaign.MetricFullSimRuns).Value()
		c.Forked += reg.Counter(campaign.MetricForkedRuns).Value()
		c.Frontier += reg.Counter(campaign.MetricFrontierRuns).Value()
		c.SimCycles += reg.Counter(campaign.MetricSimulatedCycles).Value()
		c.SynthCycles += reg.Counter(campaign.MetricSynthesizedCycles).Value()
		c.WarmSaved += reg.Counter(campaign.MetricWarmstartSaved).Value()
		// The gauges hold the daemon's latest shard; shards of one spec
		// share a snapshot plan, so the largest stands for the fleet.
		c.SnapshotBytes = max(c.SnapshotBytes, int64(reg.Gauge(campaign.MetricSnapshotBytes).Value()))
		c.TimelineBytes = max(c.TimelineBytes, int64(reg.Gauge(campaign.MetricTimelineBytes).Value()))
	}
	return c
}
