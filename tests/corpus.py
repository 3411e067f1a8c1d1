"""The replay core of the golden corpora: loading and rewriting a corpus
file, and running its stored requests through `conelogic` in this process.

Each corpus test module keeps its own JSON format, the command line of its
requests and its own rewriter.
"""

import contextlib
import io
import json
import os

from conelogic import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def save(path, doc):
    """Write doc as a corpus file: indented one space, ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def replay(requests, workdir, argv):
    """Yield (request, exit code, report) for every request, in order, each
    run through cli.main in this process. argv(i, request, put) is the
    command line of request i; put(name, doc) writes doc as a JSON file of
    that name in workdir and returns its path."""

    def put(name, doc):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    for i, req in enumerate(requests):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv(i, req, put))
        yield req, code, buf.getvalue()
