#!/bin/sh
# Fails when a public item nothing ships comes back. Every `pub fn`,
# `pub struct` and `pub enum` defined under `crates/*/src` before its
# file's top-level `#[cfg(test)]` (the cut `ci/loc.sh` uses) must be
# named somewhere else:
#   - in product code: `src/`, `crates/*/src` and `crates/*/benches`,
#     each file up to its top-level `#[cfg(test)]`;
#   - under `tests/` or `crates/*/tests`;
#   - in `dynbench/src` or `examples/`.
# `pub use` lines, `//` comments (doc comments too), `impl` headers and
# the definitions themselves name nothing. Unit tests count only from a
# crate that depends on the item's, where its `#[cfg(test)]` cannot
# reach: an item only its own crate's unit tests reach is a test oracle,
# and says so with an item-level `#[cfg(test)]`, which exempts it. There
# is no allowlist.
# Names are matched as words, so a method shares a name with every
# method of that name; the gate catches names nothing says at all.
#
#   sh ci/unreached.sh
cd "$(dirname "$0")/.." || exit 2
exec python3 - <<'EOF'
import glob, os, re, sys

DEF = re.compile(r'^\s*pub\s+(?:const\s+)?(?:unsafe\s+)?(fn|struct|enum)\s+([A-Za-z_][A-Za-z0-9_]*)')
ANY_DEF = re.compile(r'^\s*(?:pub(?:\([^)]*\))?\s+)?(?:const\s+)?(?:unsafe\s+)?(?:fn|struct|enum)\s+([A-Za-z_][A-Za-z0-9_]*)')
WORD = re.compile(r'[A-Za-z_][A-Za-z0-9_]*')
TOP_TEST = re.compile(r'^#\[cfg\(test\)\]')
ITEM_TEST = re.compile(r'^(\s+)#\[cfg\(test\)\]\s*$')

def rs_files(*patterns):
    out = []
    for p in patterns:
        out += sorted(glob.glob(p + '/**/*.rs', recursive=True))
    return out

def split(lines):
    """The lines before the top-level test module, and the rest."""
    for i, line in enumerate(lines):
        if TOP_TEST.match(line):
            return lines[:i], lines[i:]
    return lines, []

def strip_comment(line):
    """Drop a `//` comment unless the `//` sits inside a string literal."""
    at = 0
    while True:
        i = line.find('//', at)
        if i < 0:
            return line
        if line[:i].count('"') % 2 == 0:
            return line[:i]
        at = i + 2

def test_gated(lines):
    """Indices of the lines an item-level `#[cfg(test)]` gates."""
    gated = set()
    i = 0
    while i < len(lines):
        m = ITEM_TEST.match(lines[i])
        if not m:
            i += 1
            continue
        indent = m.group(1)
        j = i + 1
        while j < len(lines) and re.match(r'\s*(#\[|///|//)', lines[j]):
            j += 1
        end = j
        head = strip_comment(lines[j]).rstrip() if j < len(lines) else ''
        # One line (`...;`, or braces that close on it) or a block that
        # ends at a `}` indented like the attribute.
        if not (head.endswith(';') or (head.endswith('}') and head.count('{') == head.count('}'))):
            end = j + 1
            while end < len(lines) and not lines[end].startswith(indent + '}'):
                end += 1
        gated.update(range(i, end + 1))
        i = end + 1
    return gated

def names(lines):
    """The words the lines say, leaving out comments, re-exports, impl
    headers, and on a definition the name it defines."""
    out = []
    in_use = False
    for line in lines:
        code = strip_comment(line)
        if in_use or re.match(r'\s*pub\s+use\b', code):
            in_use = not code.rstrip().endswith(';')
            continue
        if re.match(r'\s*impl\b', code):
            continue
        words = WORD.findall(code)
        m = ANY_DEF.match(code)
        if m:
            words.remove(m.group(1))
        out += words
    return out

defs = []
words = set()
unit_tests = {}
for src in sorted(glob.glob('crates/*/src')):
    crate_tests = unit_tests.setdefault(src, set())
    for path in rs_files(src):
        with open(path) as f:
            lines, tests = split(f.read().split('\n'))
        words.update(names(lines))
        crate_tests.update(names(tests))
        gated = test_gated(lines)
        for n, line in enumerate(lines):
            m = DEF.match(line)
            if m and n not in gated:
                defs.append((src, path, n + 1, m.group(1), m.group(2)))
for path in rs_files('src', *glob.glob('crates/*/benches')):
    with open(path) as f:
        words.update(names(split(f.read().split('\n'))[0]))
for path in rs_files('tests', *glob.glob('crates/*/tests'), 'dynbench/src', 'examples'):
    with open(path) as f:
        words.update(names(f.read().split('\n')))

def depends(src, dep):
    """Whether the crate at `src` names the crate at `dep` in its manifest."""
    with open(os.path.join(os.path.dirname(src), 'Cargo.toml')) as f:
        manifest = f.read()
    name = os.path.basename(os.path.dirname(dep))
    return re.search(r'^' + re.escape(name) + r'\s*[=.]', manifest, re.M) is not None

def reached(src, name):
    return name in words or any(
        name in t for s, t in unit_tests.items() if s != src and depends(s, src))

unreached = [d[1:] for d in defs if not reached(d[0], d[4])]
for path, line, kind, name in unreached:
    print(f'{path}:{line}: pub {kind} {name} is named nowhere outside its own unit tests')
if unreached:
    print(f'error: {len(unreached)} public items nothing ships; delete them, '
          'or gate a test oracle with #[cfg(test)]', file=sys.stderr)
    sys.exit(1)
EOF
