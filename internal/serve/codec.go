package serve

import (
	"encoding/json"
	"fmt"
)

// resultEnvelope is the job-store wire form of a finished job's HTTP
// outcome: the status and pre-marshaled response body a frontend should
// relay. Cacheable marks complete 200s — the only outcomes the
// content-addressed result cache may store.
type resultEnvelope struct {
	Status    int             `json:"status"`
	Body      json.RawMessage `json:"body,omitempty"`
	ErrMsg    string          `json:"error,omitempty"`
	Cacheable bool            `json:"cacheable,omitempty"`
}

func encodeEnvelope(env *resultEnvelope) []byte {
	b, err := json.Marshal(env)
	if err != nil {
		// The envelope is built from marshalable fields only; failure here is
		// a programming error, but a failed job beats a crashed worker.
		b, _ = json.Marshal(&resultEnvelope{Status: 500, ErrMsg: "result encoding failed"})
	}
	return b
}

func decodeEnvelope(data []byte) (*resultEnvelope, error) {
	var env resultEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("serve: result envelope: %w", err)
	}
	return &env, nil
}
