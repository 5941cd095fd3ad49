package repro.core

import Ast._
import Lexer._

/** Recursive-descent parser for AIQL (multievent, dependency, anomaly).
  *
  * Shape of a query (mirroring the paper's examples — Queries 1–3):
  *
  * {{{
  * (at "08/01/2023")                  // global time window
  * agentid = 4                        // global spatial constraint
  * proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
  * proc p2 read file f1["%backup1.dmp"] as evt2
  * with evt1 before evt2              // temporal relationship ('with' optional)
  * return p1, p2, f1                  // shortcuts: p1 -> p1.exe_name, …
  * }}}
  *
  * A `forward`/`backward` keyword before the event patterns makes it a
  * dependency query; a `window = 1 min, step = 10 sec` line makes it an
  * anomaly query (with `group by` / `having`, where `amt[k]` accesses the
  * aggregate of the k-th previous window).
  */
object Parser {

  final case class ParseError(msg: String, pos: Int)
      extends RuntimeException(s"$msg at offset $pos")

  def parse(src: String): Query = new Parser(Lexer.tokenize(src)).parseQuery()

  private val durUnits: Map[String, Long] = Map(
    "ms" -> 1L,
    "sec" -> 1000L, "secs" -> 1000L, "second" -> 1000L, "seconds" -> 1000L, "s" -> 1000L,
    "min" -> 60000L, "mins" -> 60000L, "minute" -> 60000L, "minutes" -> 60000L, "m" -> 60000L,
    "hour" -> 3600000L, "hours" -> 3600000L, "h" -> 3600000L,
  )

  /** Each comparison operator and its mirror image (`a < b` is `b > a`). */
  private val flipped = Map("=" -> "=", "!=" -> "!=", "<" -> ">", "<=" -> ">=", ">" -> "<", ">=" -> "<=")

  private val aggFuncs = Set("avg", "sum", "count", "min", "max")
  private val entityKinds = Set("proc", "file", "ip")

  private final class Parser(toks: Vector[Token]) {
    private var i = 0
    private def cur: Token = toks(i)
    private def advance(): Token = { val t = cur; i += 1; t }
    private def fail(msg: String): Nothing = throw ParseError(s"$msg (found '${cur.text}')", cur.pos)

    private def expectPunct(p: String): Unit =
      if (cur.is(p)) { i += 1 } else fail(s"expected '$p'")
    private def expectIdent(kw: String): Unit =
      if (cur.isIdent(kw)) { i += 1 } else fail(s"expected '$kw'")
    private def ident(): String =
      if (cur.kind == TIdent) advance().text else fail("expected identifier")

    // ------------------------------------------------------------ globals

    private def parseGlobals(): Seq[Global] = {
      val out = Seq.newBuilder[Global]
      var more = true
      while (more) {
        if (cur.is("(") && (toks(i + 1).isIdent("at") || toks(i + 1).isIdent("from"))) {
          i += 1
          if (cur.isIdent("at")) {
            i += 1
            val d = str(); expectPunct(")")
            out += TimeAt(d)
          } else {
            expectIdent("from"); val f = str()
            expectIdent("to");   val t = str()
            expectPunct(")")
            out += TimeFromTo(f, t)
          }
        } else if (cur.isIdent("agentid")) {
          i += 1
          if (cur.is("=")) { i += 1; out += AgentIn(Seq(num().toInt)) }
          else if (cur.isIdent("in")) {
            i += 1; expectPunct("(")
            val ids = Seq.newBuilder[Int]
            ids += num().toInt
            while (cur.is(",")) { i += 1; ids += num().toInt }
            expectPunct(")")
            out += AgentIn(ids.result())
          } else fail("expected '=' or 'in' after agentid")
        } else more = false
      }
      out.result()
    }

    private def str(): String =
      if (cur.kind == TStr) advance().text else fail("expected string literal")
    private def num(): Double =
      if (cur.kind == TNum) advance().text.toDouble else fail("expected number")

    // ------------------------------------------------------------- entry

    def parseQuery(): Query = {
      val globals = parseGlobals()
      val q =
        if (cur.isIdent("window")) parseAnomaly(globals)
        else if (cur.isIdent("forward") || cur.isIdent("backward")) parseDependency(globals)
        else parseMultiEvent(globals)
      if (cur.kind != TEof) fail("unexpected trailing input")
      q
    }

    // -------------------------------------------------------- multievent

    private def parseMultiEvent(globals: Seq[Global]): MultiEventQuery = {
      val events = parseEventDecls()
      if (events.isEmpty) fail("expected at least one event pattern")
      val temps = parseTempRels(events.map(_.alias).toSet)
      val rets = parseReturn()
      val grp = parseGroupBy()
      val hav = parseHaving()
      MultiEventQuery(globals, events, temps, rets, grp, hav)
    }

    /** Event patterns, each with a distinct alias, and each entity
      * variable of one kind throughout.
      */
    private def parseEventDecls(): Seq[EventPat] = {
      val out = Seq.newBuilder[EventPat]
      val aliases = scala.collection.mutable.Set[String]()
      val kinds = scala.collection.mutable.Map[String, String]()
      while (cur.kind == TIdent && entityKinds.contains(cur.text.toLowerCase)) {
        val subj = parseEntity(kinds)
        val op = ident().toLowerCase
        val obj = parseEntity(kinds)
        expectIdent("as")
        if (cur.kind == TIdent && aliases.contains(cur.text)) fail(s"duplicate event alias '${cur.text}'")
        val alias = ident()
        aliases += alias
        out += EventPat(subj, op, obj, alias)
      }
      out.result()
    }

    private def parseEntity(kinds: scala.collection.mutable.Map[String, String]): EntityPat = {
      val kind = ident().toLowerCase
      if (!entityKinds.contains(kind)) fail(s"unknown entity kind '$kind'")
      for (k <- kinds.get(cur.text) if cur.kind == TIdent && k != kind)
        fail(s"variable '${cur.text}' used as both $k and $kind")
      val name = ident()
      kinds(name) = kind
      val filter =
        if (cur.is("[")) {
          i += 1
          val f =
            if (cur.kind == TStr && toks(i + 1).is("]"))
              // bare pattern string: default-attribute match
              Bin("=", AttrRef(name, ""), StrLit(advance().text))
            else parseOr(inFilter = Some(name))
          expectPunct("]")
          Some(f)
        } else None
      EntityPat(kind, name, filter)
    }

    /** Temporal relations between declared events; after `with`, at least
      * one.
      */
    private def parseTempRels(aliases: Set[String]): Seq[TempRel] = {
      val out = Seq.newBuilder[TempRel]
      def alias(): String =
        if (cur.kind == TIdent && !aliases.contains(cur.text))
          fail(s"temporal relation names undeclared event '${cur.text}'")
        else ident()
      val withKw = cur.isIdent("with")
      if (withKw) i += 1
      var more = withKw || cur.kind == TIdent && aliases.contains(cur.text) &&
                 (toks(i + 1).isIdent("before") || toks(i + 1).isIdent("after") || toks(i + 1).is("->"))
      while (more) {
        var left = alias()
        var chain = true
        while (chain) {
          val rel =
            if (cur.is("->")) { i += 1; "before" }
            else if (cur.isIdent("before")) { i += 1; "before" }
            else if (cur.isIdent("after")) { i += 1; "after" }
            else fail("expected 'before', 'after' or '->'")
          if (cur.kind == TIdent && cur.text == left)
            fail(s"event '$left' cannot be ordered against itself")
          val right = alias()
          out += TempRel(left, rel, right)
          left = right
          chain = cur.isIdent("before") || cur.isIdent("after") || cur.is("->")
        }
        if (cur.is(",")) { i += 1 } else more = false
      }
      out.result()
    }

    // -------------------------------------------------------- dependency

    private def parseDependency(globals: Seq[Global]): DependencyQuery = {
      val dir = ident().toLowerCase
      val events = parseEventDecls()
      if (events.isEmpty) fail("expected at least one event pattern")
      val rets = parseReturn()
      DependencyQuery(globals, dir, events, rets)
    }

    // ----------------------------------------------------------- anomaly

    private def parseAnomaly(globals: Seq[Global]): AnomalyQuery = {
      expectIdent("window"); expectPunct("=")
      val w = parsePositiveDuration("window")
      expectPunct(",")
      expectIdent("step"); expectPunct("=")
      val s = parsePositiveDuration("step")
      val events = parseEventDecls()
      if (events.size != 1) fail("anomaly query declares exactly one event pattern")
      val rets = parseReturn()
      val grp = parseGroupBy()
      val hav = parseHaving()
      AnomalyQuery(globals, w, s, events.head, rets, grp, hav)
    }

    private def parsePositiveDuration(what: String): Long = {
      val at = cur.pos
      val n = num()
      val unit = ident().toLowerCase
      val mult = durUnits.getOrElse(unit, fail(s"unknown duration unit '$unit'"))
      val ms = (n * mult).toLong
      if (ms <= 0) throw ParseError(s"$what must be at least 1 ms", at)
      ms
    }

    // ----------------------------------------------------------- clauses

    private def parseReturn(): Seq[ReturnItem] = {
      expectIdent("return")
      val out = Seq.newBuilder[ReturnItem]
      out += parseReturnItem()
      while (cur.is(",")) { i += 1; out += parseReturnItem() }
      out.result()
    }

    private def parseReturnItem(): ReturnItem = {
      val e = parseAdd(inFilter = None)
      val alias = if (cur.isIdent("as")) { i += 1; Some(ident()) } else None
      ReturnItem(e, alias)
    }

    private def parseGroupBy(): Seq[Expr] =
      if (cur.isIdent("group")) {
        i += 1; expectIdent("by")
        val out = Seq.newBuilder[Expr]
        out += parseAdd(inFilter = None)
        while (cur.is(",")) { i += 1; out += parseAdd(inFilter = None) }
        out.result()
      } else Seq.empty

    private def parseHaving(): Option[Expr] =
      if (cur.isIdent("having")) { i += 1; Some(parseOr(inFilter = None)) } else None

    // ------------------------------------------------------- expressions
    // Precedence: || < && < ! < comparison < +- < */ < primary.
    // `inFilter = Some(var)` qualifies bare attribute names with that entity
    // variable (`dstip` inside `ip i[…]` means `i.dstip`).

    private def parseOr(inFilter: Option[String]): Expr = {
      var l = parseAnd(inFilter)
      while (cur.is("||")) { i += 1; l = Bin("||", l, parseAnd(inFilter)) }
      l
    }

    private def parseAnd(inFilter: Option[String]): Expr = {
      var l = parseNot(inFilter)
      while (cur.is("&&")) { i += 1; l = Bin("&&", l, parseNot(inFilter)) }
      l
    }

    private def parseNot(inFilter: Option[String]): Expr =
      if (cur.is("!")) { i += 1; Not(parseNot(inFilter)) }
      else parseCmp(inFilter)

    /** A comparison, with a string literal moved to the right-hand side
      * (`"%x%" = a` is `a = "%x%"`), where `%` makes it a LIKE pattern.
      */
    private def parseCmp(inFilter: Option[String]): Expr = {
      val l = parseAdd(inFilter)
      if (cur.kind == TPunct && flipped.contains(cur.text)) {
        val op = advance().text
        val r = parseAdd(inFilter)
        l match {
          case s: StrLit => Bin(flipped(op), r, s)
          case _         => Bin(op, l, r)
        }
      } else l
    }

    private def parseAdd(inFilter: Option[String]): Expr = {
      var l = parseMul(inFilter)
      while (cur.is("+") || cur.is("-")) {
        val op = advance().text
        l = Bin(op, l, parseMul(inFilter))
      }
      l
    }

    private def parseMul(inFilter: Option[String]): Expr = {
      var l = parsePrimary(inFilter)
      while (cur.is("*") || cur.is("/")) {
        val op = advance().text
        l = Bin(op, l, parsePrimary(inFilter))
      }
      l
    }

    private def parsePrimary(inFilter: Option[String]): Expr = {
      if (cur.kind == TNum) NumLit(advance().text)
      else if (cur.kind == TStr) StrLit(advance().text)
      else if (cur.is("(")) { i += 1; val e = parseOr(inFilter); expectPunct(")"); e }
      else if (cur.kind == TIdent) {
        val name = advance().text
        if (cur.is("(") && aggFuncs.contains(name.toLowerCase)) {
          i += 1
          val arg = parseAdd(inFilter)
          expectPunct(")")
          Agg(name.toLowerCase, arg)
        } else if (cur.is(".")) {
          i += 1
          AttrRef(name, ident().toLowerCase)
        } else if (cur.is("[") && toks(i + 1).kind == TNum && toks(i + 2).is("]")) {
          i += 1
          val k = num().toInt
          expectPunct("]")
          HistRef(name, k)
        } else inFilter match {
          case Some(v) => AttrRef(v, name.toLowerCase) // bare attr inside [...]
          case None    => VarRef(name)
        }
      } else fail("expected expression")
    }
  }
}
