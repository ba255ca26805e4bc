#!/usr/bin/env bash
# Docs and module consistency check (run by the CI docs-check job and
# by ctest as `docs_check`).
#
# Fails when:
#  - docs/PAPER_MAP.md names a bench target (2nd table column) that
#    CMake would not define — targets are globbed from bench/*.cpp and
#    examples/*.cpp, so a target exists iff its source file does;
#  - any backtick-quoted repo path (src/, tests/, bench/, examples/,
#    tools/, docs/) referenced in README.md or docs/*.md does not exist;
#  - any docs/*.md file is not linked from README.md (orphan docs rot
#    unseen — every guide must be reachable from the front page);
#  - any src/ header is an orphan module: nothing outside its own
#    .h/.cpp pair includes it (see check 7);
#  - any backtick-quoted `Name::` qualifier in README.md or docs/*.md
#    names no class, struct, enum or `using` declared in src/ (check 8).
set -u
cd "$(dirname "$0")/.."
fail=0

# 0. The core docs must exist (and be linked — see check 3): a deleted
#    file must fail loudly, not skip its other checks.
for doc in docs/ARCHITECTURE.md docs/PAPER_MAP.md docs/SERVING_GUIDE.md; do
    if [ ! -f "${doc}" ]; then
        echo "${doc} is missing" >&2
        fail=1
    fi
done
if [ "${fail}" -ne 0 ]; then
    echo "docs check FAILED" >&2
    exit 1
fi

# 1. Bench targets named in PAPER_MAP's "Bench target" column.
while IFS= read -r target; do
    [ -z "${target}" ] && continue
    if [ ! -f "bench/${target}.cpp" ] &&
       [ ! -f "examples/${target}.cpp" ]; then
        echo "docs/PAPER_MAP.md: no bench/ or examples/ source defines" \
             "target '${target}'" >&2
        fail=1
    fi
done < <(awk -F'|' '/^\|/ { print $3 }' docs/PAPER_MAP.md |
         grep -o '`[A-Za-z0-9_]*`' | tr -d '`' | sort -u)

# 2. Backtick-quoted repo paths in the README and every docs file. An
#    extensionless
#    bench/ or examples/ reference names a build target: it resolves if
#    its .cpp source exists.
while IFS= read -r path; do
    [ -z "${path}" ] && continue
    p="${path%/}"
    if [ ! -e "${p}" ] && [ ! -f "${p}.cpp" ]; then
        echo "docs: referenced path '${path}' does not exist" >&2
        fail=1
    fi
done < <(grep -hoE \
         '`(src|tests|bench|examples|tools|docs)/[A-Za-z0-9_./-]*`' \
         README.md docs/*.md | tr -d '`' | sort -u)

# 3. Every docs file must be reachable from the README — not just the
#    core two: a guide nobody can find from the front page is dead.
for doc in docs/*.md; do
    if ! grep -q "${doc}" README.md; then
        echo "README.md does not link ${doc}" >&2
        fail=1
    fi
done

# 4. The observability surface must stay documented: ARCHITECTURE.md
#    owns the span taxonomy / determinism story, SERVING_GUIDE.md the
#    bench flags. A rename or deletion of either section would leave
#    the tracing flags undiscoverable.
if ! grep -q '^## Observability' docs/ARCHITECTURE.md; then
    echo "docs/ARCHITECTURE.md lost its '## Observability' section" >&2
    fail=1
fi
if ! grep -q -- '--trace-out' docs/SERVING_GUIDE.md; then
    echo "docs/SERVING_GUIDE.md no longer documents --trace-out" >&2
    fail=1
fi

# 6. The cross-host cluster surface likewise: ARCHITECTURE.md owns the
#    transport/replication/kill-replay design and its determinism
#    contract, SERVING_GUIDE.md the failure-drill runbook. Losing
#    either section would leave the chaos drills undiscoverable.
if ! grep -q '^## Cross-host cluster' docs/ARCHITECTURE.md; then
    echo "docs/ARCHITECTURE.md lost its '## Cross-host cluster'" \
         "section" >&2
    fail=1
fi
if ! grep -q 'serving_cluster' docs/SERVING_GUIDE.md; then
    echo "docs/SERVING_GUIDE.md no longer documents the serving_cluster" \
         "drills" >&2
    fail=1
fi
if ! grep -qi 'failure drill' docs/SERVING_GUIDE.md; then
    echo "docs/SERVING_GUIDE.md lost its failure-drill runbook" >&2
    fail=1
fi

# 5. Every tests/*.cpp suite must be registered with ctest. CMake
#    registers suites by globbing tests/*_test.cpp, so a source that
#    does not match the glob silently never runs — the exact failure
#    this check exists to catch. Headers (shared matchers) are exempt.
if ! grep -q 'tests/\*_test\.cpp' CMakeLists.txt; then
    echo "CMakeLists.txt no longer globs tests/*_test.cpp - update" \
         "tools/check_docs.sh's test-registration check to match the" \
         "new registration scheme" >&2
    fail=1
fi
for test_src in tests/*.cpp; do
    case "${test_src}" in
        tests/*_test.cpp) ;;  # matched by the ctest glob
        *)
            echo "${test_src} does not match the tests/*_test.cpp glob" \
                 "CMakeLists.txt registers with ctest - rename it" \
                 "*_test.cpp (or make it a header if it is a helper)" >&2
            fail=1
            ;;
    esac
done

# 7. Orphan modules: every src/ header needs an includer outside its
#    own .h/.cpp pair, in src/, bench/, examples/ or perfbench/. A
#    module only tests reach is dead weight unless it is paper structure
#    the tests check the frame path against; those are listed here, each
#    with the test that uses it.
test_only_modules=(
    noc/route_control     # tests/property_test.cpp: Fig. 11/14 controls
    sparse/intersection   # tests/property_test.cpp: mapper vs Fig. 11
    nerf/nerf_pipeline    # tests/nerf_test.cpp: §5.2.1 PEE render quality
)
for header in src/*/*.h; do
    module="${header#src/}"
    module="${module%.h}"
    case " ${test_only_modules[*]} " in
        *" ${module} "*) continue ;;
    esac
    if ! grep -rlF "#include \"${module}.h\"" src bench examples \
             perfbench | grep -qvxE "src/${module}\.(h|cpp)"; then
        echo "${header}: no src/, bench/, examples/ or perfbench/ file" \
             "outside its own module includes it - delete the module," \
             "or list it in tools/check_docs.sh's test_only_modules" >&2
        fail=1
    fi
done

# 8. Dead qualifiers: a backtick-quoted `Name::member` in the README or
#    a docs file must qualify by a type src/ still declares (a class,
#    struct or enum definition, not a forward declaration, or a `using`
#    alias), so deleting a type fails here until its docs move on. The
#    standard library's `std::` is the one namespace allowed.
while IFS= read -r name; do
    [ -z "${name}" ] && continue
    [ "${name}" = "std" ] && continue
    decl="^\s*((class|struct|enum(\s+(class|struct))?)\s+${name}"
    decl+="(\s*$|\s*[:{]|\s+final)|using\s+${name}\s*=)"
    if ! grep -rqE "${decl}" src --include='*.h' --include='*.cpp'; then
        echo "docs: \`${name}::\` qualifies by a type src/ does not" \
             "declare" >&2
        fail=1
    fi
done < <(grep -ohE '`[A-Za-z_][A-Za-z0-9_]*::' README.md docs/*.md |
         tr -d '`' | sed 's/::$//' | sort -u)

if [ "${fail}" -ne 0 ]; then
    echo "docs check FAILED" >&2
    exit 1
fi
echo "docs check OK"
