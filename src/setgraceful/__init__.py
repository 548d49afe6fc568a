"""Set-graceful labelings of finite simple graphs: decide, search, verify.

Import each public name from the module that defines it, for example
``from setgraceful.search import search, SearchConfig``; a process then loads
only the modules it uses, so a CLI ``check`` compiles neither the search
engine, nor the conditions, nor the oracle.
"""

__version__ = "0.1.0"
