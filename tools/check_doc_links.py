#!/usr/bin/env python3
"""Markdown link checker behind the docs_links ctest case (stdlib only).

Scans the given markdown files for inline links/images and verifies that
every relative target exists in the repository; heading anchors within
checked markdown files are verified against a GitHub-style slug of the
target's headings. External links (http/https/mailto) are skipped — CI
must not depend on network reachability.

Usage: tools/check_doc_links.py FILE.md [FILE.md ...]
Exit status: 0 when every link resolves, 1 otherwise (each failure is
printed as `file: broken link 'target'`).
"""
import re
import sys
from pathlib import Path

# Inline markdown links/images: [text](target) — stops at the first ')'
# or '#', which is fine for the repository's plain relative links.
LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
HEADING = re.compile(r"^#+\s+(.*)$", re.MULTILINE)
FENCE = re.compile(r"^(```|~~~).*?^\1\s*$", re.MULTILINE | re.DOTALL)


def github_slug(heading: str) -> str:
    """The anchor GitHub generates for a heading."""
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\- ]", "", slug)  # drop punctuation
    return slug.replace(" ", "-")


def anchors_of(path: Path) -> set:
    """Every anchor GitHub generates for `path`: one slug per heading
    (comment lines inside fenced code blocks are not headings), with
    duplicate headings suffixed -1, -2, … like GitHub does."""
    text = FENCE.sub("", path.read_text())
    anchors, seen = set(), {}
    for heading in HEADING.findall(text):
        slug = github_slug(heading)
        n = seen.get(slug, 0)
        seen[slug] = n + 1
        anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures = 0
    for name in argv[1:]:
        md = Path(name)
        # Fenced code blocks render literally: link-shaped text inside
        # them is not a link (and their #-lines are not headings).
        text = FENCE.sub("", md.read_text())
        for target in LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, anchor = target.partition("#")
            dest = md if not path_part else (md.parent / path_part)
            if not dest.exists():
                print(f"{md}: broken link '{target}'")
                failures += 1
                continue
            if anchor and dest.suffix == ".md":
                if github_slug(anchor) not in anchors_of(dest):
                    print(f"{md}: broken anchor '{target}'")
                    failures += 1
    if failures == 0:
        print(f"check_doc_links: {len(argv) - 1} files OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
