// Package rpc is the control plane's inter-process seam: a small
// length-prefixed, versioned, authenticated request/response protocol over
// TCP (or any io.ReadWriteCloser — the tests run it over net.Pipe),
// carrying signed bandwidth-file submissions from BWAuth columns (coordd
// -dirauth-addr) to the directory-authority merge node (coordd -dirauth).
//
// The paper's deployment model (§4.3) is multiple independent BWAuths
// whose per-view measurements a directory authority merges; this package
// is the wire between those processes. The protocol deliberately mirrors
// the measurement plane's wire handshake primitives (internal/wire): the
// same ed25519 Identity type, the same nonce-challenge authentication
// shape, and the same single-write length-prefixed framing — with two
// additions the measurement plane does not need: an explicit version
// negotiation (hello/welcome) so mixed-version fleets fail closed instead
// of misparsing each other, and the negotiated version bound into the
// client's auth signature so a downgrade cannot be spliced in between
// hello and auth.
//
// Layering follows the interface-first transport separation used across
// the repo: Client dials through a caller-supplied Dial func and Server
// accepts any io.ReadWriteCloser via ServeConn, so every protocol path is
// exercisable without sockets, deterministically, under the race detector.
//
// The transport authenticates the *peer* (which process is speaking); the
// payloads it carries are additionally signed end-to-end by the submitting
// BWAuth (internal/dirauth.Submission), so the merge node's acceptance
// decisions never rest on transport identity alone. See DESIGN.md
// "Distributed control plane" for the frame grammar and the merge
// invariants.
package rpc
