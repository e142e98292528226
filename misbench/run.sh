#!/usr/bin/env bash
# Builds the MIS benchmark from source and runs it; all arguments pass
# through to the binary (see doc.go for the flags). Run it from the root
# of the repository: every build and trace artefact stays under
# .bench_build there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
(
	cd "$root/misbench"
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
		XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off \
		GOWORK=off GOFLAGS= go build -o "$out/misbench" .
)
exec "$out/misbench" "$@"
