#!/bin/sh
# Style + static-analysis gate over the analysis subsystem (and the DFA
# algebra it builds on) plus the service layer's protocol and server.
# Runs clang-format in dry-run mode against .clang-format and clang-tidy
# against .clang-tidy, over src/analysis/, regex/Algebra.*,
# regex/FusedTables.* and regex/TableIO.*, the svc/Service +
# svc/Protocol pair, src/incr/, the core/TableRegistry and verify
# driver, and the MIPS policy layer.
#
# The gate degrades gracefully: on machines without the clang tooling
# (the CI container ships only gcc) it reports what it skipped and exits
# 0, so `ctest` stays green while developer machines with the tools get
# the full check. Pass a build dir with compile_commands.json as $1
# (default: build).
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build}"

FILES="
$ROOT/src/analysis/PolicyAudit.h
$ROOT/src/analysis/PolicyAudit.cpp
$ROOT/src/analysis/CfgLint.h
$ROOT/src/analysis/CfgLint.cpp
$ROOT/src/analysis/Dataflow.h
$ROOT/src/analysis/Dataflow.cpp
$ROOT/src/regex/Algebra.h
$ROOT/src/regex/Algebra.cpp
$ROOT/src/regex/FusedTables.h
$ROOT/src/regex/FusedTables.cpp
$ROOT/src/regex/TableIO.h
$ROOT/src/regex/TableIO.cpp
$ROOT/src/core/TableRegistry.h
$ROOT/src/core/TableRegistry.cpp
$ROOT/src/core/ChainDriver.h
$ROOT/src/mips/MipsPolicy.h
$ROOT/src/mips/MipsPolicy.cpp
$ROOT/src/svc/Protocol.h
$ROOT/src/svc/Protocol.cpp
$ROOT/src/svc/Service.h
$ROOT/src/svc/Service.cpp
$ROOT/src/svc/SessionConn.h
$ROOT/src/svc/SessionConn.cpp
$ROOT/src/svc/EventLoop.h
$ROOT/src/svc/EventLoop.cpp
$ROOT/src/incr/ImageStore.h
$ROOT/src/incr/ImageStore.cpp
$ROOT/src/incr/IncrementalVerifier.h
$ROOT/src/incr/IncrementalVerifier.cpp
"

STATUS=0
RAN_ANY=0

echo "== file list =="
# Every FILES entry must exist: a rename that leaves a stale path here
# would silently shrink the gate's coverage. Needs no tooling, but does
# not count toward RAN_ANY — it checks this script, not the sources.
for F in $FILES; do
  if [ ! -f "$F" ]; then
    echo "check_lint: listed file does not exist: $F"
    STATUS=1
  fi
done
if [ "$STATUS" = 0 ]; then
  echo "all listed files exist"
fi

if command -v clang-format >/dev/null 2>&1; then
  RAN_ANY=1
  echo "== clang-format (dry run) =="
  # shellcheck disable=SC2086
  if ! clang-format --dry-run -Werror $FILES; then
    STATUS=1
  fi
else
  echo "check_lint: clang-format not found; format check skipped"
fi

if command -v clang-tidy >/dev/null 2>&1; then
  if [ -f "$BUILD/compile_commands.json" ]; then
    RAN_ANY=1
    echo "== clang-tidy =="
    for F in $FILES; do
      case "$F" in
      *.cpp)
        if ! clang-tidy -p "$BUILD" --quiet "$F"; then
          STATUS=1
        fi
        ;;
      esac
    done
  else
    echo "check_lint: no compile_commands.json in $BUILD" \
         "(configure with cmake first); clang-tidy skipped"
  fi
else
  echo "check_lint: clang-tidy not found; static-analysis check skipped"
fi

echo "== ARCHITECTURE.md coverage =="
# Every directory under src/ must be mentioned in ARCHITECTURE.md, so
# the subsystem map cannot silently rot as the tree grows. This check
# needs no external tooling, so it always runs.
if [ ! -f "$ROOT/ARCHITECTURE.md" ]; then
  echo "check_lint: ARCHITECTURE.md is missing"
  STATUS=1
else
  for D in "$ROOT"/src/*/; do
    NAME="$(basename "$D")"
    if ! grep -q "$NAME/" "$ROOT/ARCHITECTURE.md"; then
      echo "check_lint: ARCHITECTURE.md does not mention src/$NAME/"
      STATUS=1
    fi
  done
  if [ "$STATUS" = 0 ]; then
    echo "ARCHITECTURE.md mentions every directory under src/"
  fi
fi

echo "== src/core/ include layering =="
# rocksalt_core links the decoder grammars and the DFA pipeline, never
# the semantics or anything above core: files under src/core/ may
# include project headers from core/, regex/, grammar/, x86/ and
# support/ only. Needs no tooling, so it always runs.
LAYER_OK=1
for F in "$ROOT"/src/core/*.h "$ROOT"/src/core/*.cpp; do
  BAD="$(grep -n '^[[:space:]]*#[[:space:]]*include[[:space:]]*"' "$F" |
    grep -v -E '"(core|regex|grammar|x86|support)/')"
  if [ -n "$BAD" ]; then
    echo "check_lint: $F includes a header outside" \
         "core/ regex/ grammar/ x86/ support/:"
    echo "$BAD"
    LAYER_OK=0
    STATUS=1
  fi
done
if [ "$LAYER_OK" = 1 ]; then
  echo "src/core/ includes only core/ regex/ grammar/ x86/ support/ headers"
fi

# RAN_ANY distinguishes "the source checks passed" from "no source check
# ran": a toolless container still exits 0 (graceful degradation), but
# the log now says so instead of reading like a clean bill of health.
if [ "$RAN_ANY" = 0 ]; then
  echo "check_lint: NO source check ran (clang tooling not installed);" \
       "structural checks only — do not read this pass as a style pass"
else
  echo "check_lint: source checks ran"
fi

exit $STATUS
