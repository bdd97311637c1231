package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"mmtag/internal/eval"
	"mmtag/internal/net"
)

// fleetShape is what every HTTP body is checked against: the fleet's
// AP and tag counts, and whether the front door is the router (whose
// scatter bodies carry the shards_ok/shards_total contract).
type fleetShape struct {
	APs, Tags int
	Router    bool
}

// snapMeta is the framing every snapshot-backed shard body carries.
type snapMeta struct {
	Epoch   *int   `json:"epoch"`
	TakenAt string `json:"taken_at"`
}

// gather is the router's partial-result framing.
type gather struct {
	ShardsTotal *int `json:"shards_total"`
	ShardsOK    *int `json:"shards_ok"`
}

type idOnly struct {
	ID *int `json:"id"`
}

// checkGather applies the 207 contract: a 200 names every shard, a 207
// some but not all.
func checkGather(g gather, code int) error {
	if g.ShardsTotal == nil || g.ShardsOK == nil {
		return fmt.Errorf("router body lacks shards_total/shards_ok")
	}
	switch {
	case code == http.StatusOK && *g.ShardsOK != *g.ShardsTotal:
		return fmt.Errorf("200 with shards_ok %d != shards_total %d", *g.ShardsOK, *g.ShardsTotal)
	case code == http.StatusMultiStatus && (*g.ShardsOK == 0 || *g.ShardsOK >= *g.ShardsTotal):
		return fmt.Errorf("207 with shards_ok %d of %d", *g.ShardsOK, *g.ShardsTotal)
	}
	return nil
}

// checkTagList requires ascending unique IDs, exactly 1..want when the
// answer is complete.
func checkTagList(tags []idOnly, want int, complete bool) error {
	if complete && len(tags) != want {
		return fmt.Errorf("%d tags, want %d", len(tags), want)
	}
	prev := 0
	for i, t := range tags {
		if t.ID == nil {
			return fmt.Errorf("tag %d has no id", i)
		}
		if *t.ID <= prev || *t.ID > want || (complete && *t.ID != i+1) {
			return fmt.Errorf("tag list out of ID order at position %d (id %d)", i, *t.ID)
		}
		prev = *t.ID
	}
	return nil
}

// age returns recv minus the body's taken_at in seconds.
func age(m snapMeta, recv time.Time) (float64, error) {
	if m.Epoch == nil || m.TakenAt == "" {
		return 0, fmt.Errorf("body lacks epoch/taken_at")
	}
	at, err := time.Parse(time.RFC3339Nano, m.TakenAt)
	if err != nil {
		return 0, fmt.Errorf("taken_at: %v", err)
	}
	return recv.Sub(at).Seconds(), nil
}

// checkBody validates one 2xx response body for route ("tags", "tag",
// "report" or "status"; id is the requested tag for "tag"). It returns
// the inventory's age at recv when the body carries a taken_at.
func (f fleetShape) checkBody(route string, id, code int, body []byte, recv time.Time) (ageS float64, hasAge bool, err error) {
	if code == http.StatusMultiStatus && (!f.Router || route == "status") {
		return 0, false, fmt.Errorf("unexpected 207 on %s", route)
	}
	switch route {
	case "tags":
		var b struct {
			snapMeta
			gather
			Tags []idOnly `json:"tags"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			return 0, false, fmt.Errorf("tags: %v", err)
		}
		if f.Router {
			if err := checkGather(b.gather, code); err != nil {
				return 0, false, fmt.Errorf("tags: %v", err)
			}
			return 0, false, checkTagList(b.Tags, f.Tags, code == http.StatusOK)
		}
		if err := checkTagList(b.Tags, f.Tags, true); err != nil {
			return 0, false, fmt.Errorf("tags: %v", err)
		}
		a, err := age(b.snapMeta, recv)
		return a, err == nil, err
	case "tag":
		// Router pinned reads pass the owning shard's body through.
		var b struct {
			snapMeta
			Tag idOnly `json:"tag"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			return 0, false, fmt.Errorf("tag: %v", err)
		}
		if b.Tag.ID == nil || *b.Tag.ID != id {
			return 0, false, fmt.Errorf("tag: asked for %d, body is %s", id, truncate(body))
		}
		if code == http.StatusMultiStatus {
			return 0, false, nil // stale fallback: no snapshot framing
		}
		a, err := age(b.snapMeta, recv)
		return a, err == nil, err
	case "report":
		var b struct {
			snapMeta
			gather
			// encoding/json matches keys case-insensitively, so these
			// read the shard's "APs"/"Tags" and the router's
			// "aps"/"tags" alike.
			Report struct {
				Cells []json.RawMessage `json:"cells"`
				APs   *int              `json:"aps"`
				Tags  *int              `json:"tags"`
			} `json:"report"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			return 0, false, fmt.Errorf("report: %v", err)
		}
		totalsOK := b.Report.APs != nil && *b.Report.APs == f.APs &&
			b.Report.Tags != nil && *b.Report.Tags == f.Tags
		if f.Router {
			if err := checkGather(b.gather, code); err != nil {
				return 0, false, fmt.Errorf("report: %v", err)
			}
			if code == http.StatusOK && !totalsOK {
				return 0, false, fmt.Errorf("report: fleet totals are not %d APs / %d tags", f.APs, f.Tags)
			}
			return 0, false, nil
		}
		if !totalsOK {
			return 0, false, fmt.Errorf("report: totals are not %d APs / %d tags", f.APs, f.Tags)
		}
		if len(b.Report.Cells) != f.APs {
			return 0, false, fmt.Errorf("report: %d cells, want %d", len(b.Report.Cells), f.APs)
		}
		a, err := age(b.snapMeta, recv)
		return a, err == nil, err
	case "status":
		var b struct {
			gather
			State string `json:"state"`
			Epoch *int   `json:"epoch"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			return 0, false, fmt.Errorf("status: %v", err)
		}
		if b.State != "serving" {
			return 0, false, fmt.Errorf("status: state %q", b.State)
		}
		if f.Router {
			return 0, false, checkGather(b.gather, code)
		}
		if b.Epoch == nil || *b.Epoch < 1 {
			return 0, false, fmt.Errorf("status: no completed epoch")
		}
		return 0, false, nil
	}
	return 0, false, fmt.Errorf("unknown route %q", route)
}

func truncate(b []byte) string {
	if len(b) > 120 {
		return string(b[:120]) + "..."
	}
	return string(b)
}

// digestHex is the SHA-256 of data, hex-encoded.
func digestHex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// stateDigest fingerprints a live deployment's published state: the
// runner's cumulative report plus every tag's state.
func stateDigest(rep *net.Report, tags []net.TagInfo) (string, error) {
	b, err := json.Marshal(struct {
		Report *net.Report
		Tags   []net.TagInfo
	}{rep, tags})
	if err != nil {
		return "", err
	}
	return digestHex(b), nil
}

// tablesDigest fingerprints suite output by its rendered bytes.
func tablesDigest(tabs []*eval.Table) string {
	h := sha256.New()
	for _, t := range tabs {
		h.Write([]byte(t.Render()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkDigest fails when got differs from the serial reference.
func checkDigest(what, got, want string) error {
	if got != want {
		return fmt.Errorf("%s digest %.12s differs from the serial reference %.12s", what, got, want)
	}
	return nil
}
