"""Exception types shared across the package, and the reader of outside JSON.

The CLI maps these onto exit codes: validation problems (bad input data,
malformed files, out-of-range parameters) exit with 1, operating-system
I/O failures with 2, anything unexpected with 3.
"""


class TopicforgeError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(TopicforgeError, ValueError):
    """Input data, configuration, or file content failed validation."""


class CorpusError(ValidationError):
    """A corpus file is malformed (bad record, duplicate id, wrong type)."""


class EmptyVocabularyError(ValidationError):
    """No word survived the minimum-count filter."""


class ArchiveError(ValidationError):
    """A model archive is corrupt, truncated, or has an unsupported version."""


# Each JSON kind, as a dataclass field's annotation may name it: the exact types
# it admits (``true`` is no integer) and the words that name one value and many.
_KINDS = {
    "int": ({int}, "an integer", "integers"),
    "float": ({int, float}, "a number", "numbers"),
    "str": ({str}, "a string", "strings"),
    "list": ({list}, "a list", "lists"),
    "object": ({dict}, "a JSON object", "JSON objects"),
}


def _name(key, path: str) -> str:
    return f"{path}[{key}]" if type(key) is int else f"{path}.{key}" if path else key


class JsonReader:
    """Reads the values of one parsed JSON input by their kind.

    ``where`` locates the input, such as ``"line 3: "``, and ``root`` names its
    top-level object; a value is named by its path, ``key``, ``path.key`` or
    ``path[0]``.  A fault raises ``error``: ``<where><root> must be a JSON object``,
    ``<where><root> is missing '<name>'`` or ``<where><name> must be <kind>, got
    <repr>`` (for a list, ``must be a list of <kinds>``).
    """

    __slots__ = ("error", "where", "root")  # one reader per corpus line

    def __init__(self, error: type[ValidationError], where: str, root: str):
        self.error, self.where, self.root = error, where, root

    def object(self, data) -> dict:
        """``data``, the input's root, which must be a JSON object."""
        if type(data) is not dict:
            raise self.error(f"{self.where}{self.root} must be a JSON object")
        return data

    def _get(self, obj, key, path: str):
        try:
            return obj[key]
        except KeyError:
            name = _name(key, path)
            raise self.error(f"{self.where}{self.root} is missing {name!r}") from None

    def value(self, obj, key, kind: str, path: str = ""):
        """``obj[key]``, which must be one JSON value of ``kind``."""
        return self.check(self._get(obj, key, path), kind, key, path)

    def list(self, obj, key, kind: str, path: str = "") -> list:
        """``obj[key]``, which must be a list of JSON values of ``kind``."""
        return self.check_list(self._get(obj, key, path), kind, key, path)

    def check(self, value, kind: str, key, path: str = ""):
        """``value``, named by ``key`` and ``path``, which must be of ``kind``."""
        types, one, _ = _KINDS[kind]
        if type(value) not in types:  # format the message, a repr, only on failure
            name = _name(key, path)
            raise self.error(f"{self.where}{name} must be {one}, got {value!r:.60}")
        return value

    def check_list(self, values, kind: str, key, path: str = "") -> list:
        types, _, many = _KINDS[kind]
        if type(values) is not list or not set(map(type, values)) <= types:
            raise self.error(f"{self.where}{_name(key, path)} must be a list of {many}")
        return values
