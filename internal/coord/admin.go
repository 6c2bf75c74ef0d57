package coord

import (
	"encoding/json"
	"fmt"
	"net/http"

	"amstrack/internal/amsd"
)

// The admin verbs the rebalance flow needs on top of the read-only
// fetch surface: list a node's relations, define one, merge a bundle
// into a node, and drop a relation. Retryability differs
// per verb and the differences are load-bearing — see each method.

// ListRelations GETs a node's defined relation names, retrying per the
// fetcher's policy (the call is read-only and idempotent).
func (fx *Fetcher) ListRelations(node string) ([]string, error) {
	var out amsd.RelationsBody
	err := fx.getJSON(node+"/v1/relations", "relations", &out)
	return out.Relations, err
}

// Schema is a relation's schema as reported by GET /v1/relations/{name},
// in the same field shapes the define endpoint accepts — fetch it from
// one node, POST it to another, and the two relations are mergeable.
type Schema = amsd.SchemaBody

// FetchSchema GETs one relation's schema from one node. ErrNotFound
// reports the relation is not defined there.
func (fx *Fetcher) FetchSchema(node, rel string) (Schema, error) {
	var sc Schema
	err := fx.getJSON(node+"/v1/relations/"+RelPath(rel), "schema", &sc)
	return sc, err
}

// DefineRelation POSTs a schema define to a node. Transport errors and
// 5xx retry per the fetcher's policy, and a 409 is success: the node
// already has the relation — a concurrent adopter (another caller, or a
// peer router) won the define race, or an earlier attempt landed — and
// define is idempotent.
func (fx *Fetcher) DefineRelation(node string, sc Schema) error {
	body, err := json.Marshal(sc.Request())
	if err != nil {
		return err
	}
	_, err = fx.request(http.MethodPost, node+"/v1/relations", "application/json", body,
		http.StatusCreated, http.StatusConflict)
	return err
}

// MergeBundleBytes PUTs a serialized bundle into an EXISTING relation on
// a node (?mode=merge) in exactly ONE attempt — no retry, ever. Merge
// adds the bundle's counts into the node's linear synopses, so a retry
// after an ambiguous failure (transport error after the body was sent,
// 5xx from a node that applied the merge before dying on the response)
// risks adding them TWICE, which corrupts the synopses silently. A
// failure here is for the operator: re-verify the destination's stamp
// before deciding whether to re-send. ErrNotFound reports the target
// relation is not defined on the node.
func (fx *Fetcher) MergeBundleBytes(node, rel string, bundle []byte) error {
	_, ambiguous, err := fx.call(http.MethodPut, node+"/v1/signatures/"+RelPath(rel)+"?mode=merge",
		"application/octet-stream", bundle, http.StatusOK)
	if ambiguous {
		return fmt.Errorf("merge not retried (may or may not have applied; verify the destination stamp): %w", err)
	}
	return err
}

// DeleteRelation DELETEs a relation from a node, retrying per the
// fetcher's policy. Delete is naturally idempotent — a 404 means the
// relation is gone, which is the goal state — so a 404 (first attempt or
// after a retried ambiguous failure) reports success.
func (fx *Fetcher) DeleteRelation(node, rel string) error {
	_, err := fx.request(http.MethodDelete, node+"/v1/relations/"+RelPath(rel), "", nil,
		http.StatusOK, http.StatusNotFound)
	return err
}
