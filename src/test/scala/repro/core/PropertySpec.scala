package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

import Ast._

/** Property-based tests via raw ScalaCheck (the scalatest bridge artifact is
  * not available offline).
  */
class PropertySpec extends AnyFunSuite {

  private def check(prop: Prop, tests: Int = 100): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(tests), prop)
    assert(res.passed, res.status.toString)
  }

  test("lexer: identifier streams round-trip their text") {
    check(Prop.forAll(Gen.nonEmptyListOf(Gen.identifier.suchThat(_.nonEmpty))) { ids =>
      val toks = Lexer.tokenize(ids.mkString(" ")).dropRight(1)
      toks.map(_.text) == ids.toVector && toks.forall(_.kind == Lexer.TIdent)
    })
  }

  test("lexer: number streams round-trip") {
    check(Prop.forAll(Gen.nonEmptyListOf(Gen.chooseNum(0L, 1000000L))) { ns =>
      Lexer.tokenize(ns.mkString(" ")).dropRight(1).map(_.text.toLong) == ns.toVector
    })
  }

  test("daysOf: covered, contiguous, sorted") {
    val day = repro.events.EventSchema.DayMillis
    check(Prop.forAll(Gen.chooseNum(0L, 400L * day), Gen.chooseNum(1L, 5L * day)) { (s, len) =>
      val days = Times.daysOf(s, s + len)
      days.nonEmpty &&
        days.size == (math.floorDiv(s + len - 1, day) - math.floorDiv(s, day) + 1) &&
        days == days.sorted && days.distinct == days
    })
  }

  test("windowsSpec: window w covers exactly [t0+w·step, t0+w·step+window)") {
    val q = Parser.parse(
      """(at "08/01/2023")
        |window = 1 min, step = 10 sec
        |proc p write ip i as evt
        |return p, avg(evt.amount) as amt
        |group by p""".stripMargin).asInstanceOf[AnomalyQuery]
    val ws = SqlSynthesizer.windowsSpec(q)
    val t0 = Times.parseMs("08/01/2023")
    check(Prop.forAll(Gen.chooseNum(0, ws.size - 1)) { i =>
      val (w, s, e) = ws(i)
      s == t0 + w * q.stepMs && e - s == q.windowMs
    })
    check(Prop.forAll(Gen.chooseNum(t0 + q.windowMs, t0 + 86399000L)) { ts =>
      ws.count { case (_, s, e) => ts >= s && ts < e } == (q.windowMs / q.stepMs)
    }, tests = 30)
  }

  test("conciseness bounds") {
    check(Prop.forAll(Gen.asciiPrintableStr) { s =>
      Conciseness.chars(s) <= s.length && Conciseness.words(s) <= Conciseness.chars(s) + 1
    })
  }

  test("countAtoms distributes over conjunction") {
    val atomGen: Gen[Expr] =
      Gen.oneOf[Expr](Bin("=", VarRef("a"), NumLit("1")), Bin("<", VarRef("b"), NumLit("2")))
    check(Prop.forAll(Gen.nonEmptyListOf(atomGen)) { atoms =>
      SqlSynthesizer.countAtoms(atoms.reduce[Expr]((l, r) => Bin("&&", l, r))) == atoms.size
    })
  }

  test("parser: generated single-event queries always parse") {
    val exeGen = Gen.oneOf("cmd.exe", "osql.exe", "powershell.exe")
    val opGen = Gen.oneOf("read", "write", "execute", "delete")
    check(Prop.forAll(exeGen, opGen, Gen.oneOf(true, false)) { (exe, op, like) =>
      val pat = if (like) s"%$exe" else exe
      Parser.parse(s"""proc p["$pat"] $op file f as evt
                      |return p, f, evt.ts""".stripMargin)
        .asInstanceOf[MultiEventQuery].events.head.op == op
    })
  }
}
