"""S-expression reader/writer shared by every textual format in the package.

Atoms are ints (ASCII digits with an optional leading `-`), double-quoted
strings, or symbols (anything else, including `->`, `=>`, and type variables
like 'A). `#` starts a comment that runs to end of line.

The module also holds the readers that depend only on a form's structure:
`clauses` reads a `(head (name ...) ...)` form, `is_string` tells a quoted
string from a symbol, and `is_symbol` tells a keyword from a quoted string
that spells it. Like the reader, they raise SexprError; each file format's
entry point converts it to its own error, once.
"""

from __future__ import annotations


# The deepest list nesting the reader accepts. The recursive walks that
# follow parsing (conversion, type checking, hashing) take up to two stack
# frames per level: a problem spec about 495 levels deep exhausts Python's
# default limit of 1000 frames. At 200 an accepted input still leaves room
# for the caller's own frames, and for repair's location specs, which nest a
# function's body inside its ensures.
MAX_DEPTH = 200


class SexprError(ValueError):
    """Malformed S-expression input."""


class Symbol(str):
    """A bare identifier token, distinct from a quoted string."""

    def __repr__(self) -> str:
        return f"Symbol({str.__repr__(self)})"


def tokenize(text: str) -> list[str | int | Symbol]:
    tokens: list[str | int | Symbol] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
        elif c == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            tokens.append(Symbol(c))
            i += 1
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 1
            if j >= n:
                raise SexprError("unterminated string literal")
            tokens.append(text[i + 1 : j])
            i = j + 1
        else:
            j = i
            while j < n and text[j] not in ' \t\r\n()"#':
                j += 1
            word = text[i:j]
            tokens.append(_atom(word))
            i = j
    return tokens


def _atom(word: str) -> int | Symbol:
    digits = word[1:] if word.startswith("-") else word
    if not (digits.isascii() and digits.isdigit()):
        return Symbol(word)
    try:
        return int(word)
    except ValueError:  # longer than Python's int-to-string limit
        raise SexprError(f"integer literal of {len(word)} characters is too long") from None


def parse_all(text: str) -> list:
    """Parse every top-level form in the text. Lists nest at most MAX_DEPTH
    deep; the reader keeps its own stack of open lists, so deeper input is
    rejected with SexprError rather than exhausting Python's stack."""
    stack: list[list] = [[]]  # stack[0] collects the top-level forms
    for tok in tokenize(text):
        if isinstance(tok, Symbol) and tok == "(":
            if len(stack) > MAX_DEPTH:
                raise SexprError(f"lists nest deeper than {MAX_DEPTH}")
            stack.append([])
        elif isinstance(tok, Symbol) and tok == ")":
            if len(stack) == 1:
                raise SexprError("unexpected ')'")
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) > 1:
        raise SexprError("unbalanced parenthesis")
    return stack[0]


def parse_one(text: str):
    forms = parse_all(text)
    if len(forms) != 1:
        raise SexprError(f"expected exactly one form, found {len(forms)}")
    return forms[0]


def is_string(form) -> bool:
    """Whether form is a double-quoted string, not a symbol."""
    return isinstance(form, str) and not isinstance(form, Symbol)


def is_symbol(form, name: str) -> bool:
    """Whether form is the bare symbol name, not a quoted string."""
    return isinstance(form, Symbol) and form == name


def clauses(form, head: str, required, optional) -> dict[str, list]:
    """The clauses of a `(head (name ...) ...)` form, each name mapped to
    its arguments. Every name in required must appear, and no name outside
    required and optional may."""
    if not (isinstance(form, list) and form and is_symbol(form[0], head)):
        raise SexprError(f"expected a ({head} ...) form")
    out: dict[str, list] = {}
    for clause in form[1:]:
        if not (isinstance(clause, list) and clause and isinstance(clause[0], Symbol)):
            raise SexprError(f"bad clause {write(clause)}")
        name = str(clause[0])
        if name in out:
            raise SexprError(f"duplicate clause ({name} ...)")
        out[name] = clause[1:]
    unknown = set(out).difference(required, optional)
    if unknown:
        raise SexprError(f"unknown clause(s): {', '.join(sorted(unknown))}")
    for name in required:
        if name not in out:
            raise SexprError(f"missing ({name} ...) clause")
    return out


def write(form) -> str:
    """The text of form. The writer keeps its own stack of open lists, so a
    list of any depth prints without exhausting Python's stack."""
    out: list[str] = []
    stack = [iter((form,))]  # one iterator per open list, under the form itself
    first = True  # the next item opens its list, so no space goes before it
    while stack:
        for f in stack[-1]:
            if not first:
                out.append(" ")
            first = False
            if isinstance(f, list):
                out.append("(")
                stack.append(iter(f))
                first = True
                break
            out.append(_write_atom(f))
        else:
            stack.pop()
            if stack:
                out.append(")")
            first = False
    return "".join(out)


def _write_atom(form) -> str:
    if isinstance(form, Symbol):
        return str(form)
    if isinstance(form, str):
        return '"' + form + '"'
    return str(form)


def read_file(path, error: type[Exception], what: str) -> str:
    """The UTF-8 text of the file at path. A file that cannot be opened or
    decoded raises `error("cannot read <what> <path>: ...")`."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as err:
        raise error(f"cannot read {what} {path}: {err}") from None
