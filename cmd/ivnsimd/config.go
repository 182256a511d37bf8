package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"ivn/internal/service"
)

// daemonConfig is the ivnsimd configuration document: the listen
// address plus the service sizing, as one flat JSON object:
//
//	{"addr": "127.0.0.1:8347", "workers": 2, "queue_depth": 16,
//	 "max_parallel": 0, "cache_entries": 64}
//
// Every field is optional; zero values select the defaults below.
type daemonConfig struct {
	// Addr is the listen address. ":0" picks an ephemeral port (the
	// daemon prints the bound address on stdout, which is how a client
	// that started it finds the port).
	Addr string `json:"addr,omitempty"`
	service.Config
}

// defaultAddr binds loopback only: the daemon has no auth layer.
const defaultAddr = "127.0.0.1:8347"

// withDefaults fills the unset fields. The service.Config defaults are
// applied by service.New; only the daemon-level ones live here.
func (c daemonConfig) withDefaults() daemonConfig {
	if c.Addr == "" {
		c.Addr = defaultAddr
	}
	return c
}

// validate rejects documents that cannot configure a daemon.
func (c daemonConfig) validate() error {
	return c.Config.Validate()
}

// loadConfig reads and validates a config file; an empty path yields
// the defaults. Unknown fields are rejected so a typo ("worker") fails
// startup instead of silently running the default.
func loadConfig(path string) (daemonConfig, error) {
	var c daemonConfig
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return c, fmt.Errorf("config: %w", err)
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&c); err != nil {
			return c, fmt.Errorf("config %s: %w", path, err)
		}
		if dec.More() {
			return c, fmt.Errorf("config %s: trailing data after document", path)
		}
	}
	if err := c.validate(); err != nil {
		return c, fmt.Errorf("config %s: %w", path, err)
	}
	return c.withDefaults(), nil
}

// restartRequired names the fields of next that differ from cur but
// cannot be applied to a live daemon (the hot-reloadable ones —
// max_parallel, cache_entries — are handled by Manager.Reconfigure).
func restartRequired(cur, next daemonConfig) []string {
	var fields []string
	if next.Addr != cur.Addr {
		fields = append(fields, "addr")
	}
	if next.Workers != cur.Workers {
		fields = append(fields, "workers")
	}
	if next.QueueDepth != cur.QueueDepth {
		fields = append(fields, "queue_depth")
	}
	if next.JournalPath != cur.JournalPath {
		// The journal file is opened (and its pending jobs resubmitted)
		// once, at Manager construction.
		fields = append(fields, "journal")
	}
	return fields
}
